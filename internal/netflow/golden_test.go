package netflow

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_v9.json from the current codec")

// The v9 golden file pins the codec's wire behaviour: the exact bytes
// EncodeV9 writes, and what DecodeV9 makes of a fixed set of datagrams
// (records, templates, unknown data sets and the error). It is reference
// output; regenerate it with -update only for a deliberate wire change.
const goldenV9Path = "testdata/golden_v9.json"

type goldenEncode struct {
	Name string `json:"name"`
	Hex  string `json:"hex,omitempty"`
	Err  string `json:"error,omitempty"`
}

type goldenRecord struct {
	UnixNano int64  `json:"unix_nano"`
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	SrcPort  uint16 `json:"sp"`
	DstPort  uint16 `json:"dp"`
	Proto    uint8  `json:"proto"`
	Packets  uint64 `json:"pkts"`
	Bytes    uint64 `json:"bytes"`
}

type goldenTemplate struct {
	ID     uint16      `json:"id"`
	Fields [][2]uint16 `json:"fields"` // (type, length)
}

type goldenDecoded struct {
	Templates       []goldenTemplate `json:"templates,omitempty"`
	Records         []goldenRecord   `json:"records,omitempty"`
	UnknownDataSets int              `json:"unknown_data_sets,omitempty"`
	Err             string           `json:"error,omitempty"`
}

// goldenDecodeCase is a run of datagrams decoded in order against one
// fresh template cache, so a case can announce a template in one
// datagram and use it in the next.
type goldenDecodeCase struct {
	Name      string          `json:"name"`
	Datagrams []string        `json:"datagrams"`
	Decoded   []goldenDecoded `json:"decoded"`
}

type goldenV9File struct {
	Encode []goldenEncode     `json:"encode"`
	Decode []goldenDecodeCase `json:"decode"`
}

func goldenRecords(recs []FlowRecord) []goldenRecord {
	var out []goldenRecord
	for _, r := range recs {
		out = append(out, goldenRecord{r.Timestamp.UnixNano(), r.SrcIP.String(), r.DstIP.String(),
			r.SrcPort, r.DstPort, r.Proto, r.Packets, r.Bytes})
	}
	return out
}

func goldenSampleFlows() []FlowRecord {
	ts := time.UnixMilli(1653475200123)
	return []FlowRecord{
		{Timestamp: ts, SrcIP: netip.MustParseAddr("198.51.100.7"), DstIP: netip.MustParseAddr("203.0.113.9"),
			SrcPort: 443, DstPort: 51234, Proto: ProtoTCP, Packets: 99, Bytes: 123456},
		{Timestamp: ts.Add(time.Second), SrcIP: netip.MustParseAddr("192.0.2.1"), DstIP: netip.MustParseAddr("198.51.100.99"),
			SrcPort: 53, DstPort: 40000, Proto: ProtoUDP, Packets: 1, Bytes: 80},
	}
}

func goldenV6Flow() FlowRecord {
	return FlowRecord{Timestamp: time.UnixMilli(1653475200000),
		SrcIP: netip.MustParseAddr("2001:db8::7"), DstIP: netip.MustParseAddr("2001:db8:1::9"),
		SrcPort: 443, DstPort: 50000, Proto: ProtoTCP, Packets: 5, Bytes: 7000}
}

// v9Datagram assembles a v9 export from raw FlowSets (each already
// carrying its own set header).
func v9Datagram(sourceID uint32, count uint16, sets ...[]byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, 9)
	b = binary.BigEndian.AppendUint16(b, count)
	b = binary.BigEndian.AppendUint32(b, 1000)       // sysUptime
	b = binary.BigEndian.AppendUint32(b, 1653475200) // unixSecs
	b = binary.BigEndian.AppendUint32(b, 7)          // sequence
	b = binary.BigEndian.AppendUint32(b, sourceID)
	for _, s := range sets {
		b = append(b, s...)
	}
	return b
}

// rawSet frames body as one set with the given ID; the length word covers
// the 4-byte set header plus body.
func rawSet(id uint16, body ...byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, id)
	b = binary.BigEndian.AppendUint16(b, uint16(4+len(body)))
	return append(b, body...)
}

// u16s flattens 16-bit words big-endian, the shape of template records.
func u16s(ws ...uint16) []byte {
	var b []byte
	for _, w := range ws {
		b = binary.BigEndian.AppendUint16(b, w)
	}
	return b
}

func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func mustEncodeV9(t testing.TB, h V9Header, tmpl Template, recs []FlowRecord) []byte {
	t.Helper()
	b, err := EncodeV9(h, tmpl, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stripTemplateSet drops the first FlowSet after the v9 header, leaving a
// data-only export.
func stripTemplateSet(pkt []byte) []byte {
	n := int(binary.BigEndian.Uint16(pkt[22:]))
	return append(append([]byte{}, pkt[:20]...), pkt[20+n:]...)
}

func goldenV9Encodes(t testing.TB) []goldenEncode {
	h := V9Header{SysUptimeMs: 5, UnixSecs: 1653475200, SequenceNum: 3, SourceID: 11}
	flows := goldenSampleFlows()
	cases := []struct {
		name string
		tmpl Template
		recs []FlowRecord
	}{
		{"standard_v4_two_records", StandardTemplate(), flows},
		{"standard_v4_one_record_padded", StandardTemplate(), flows[:1]},
		{"standard_v4_template_only", StandardTemplate(), nil},
		{"standard_v6_one_record", StandardTemplateV6(), []FlowRecord{goldenV6Flow()}},
		{"standard_v6_template_only", StandardTemplateV6(), nil},
		{"standard_v4_with_v6_record", StandardTemplate(), []FlowRecord{goldenV6Flow()}},
		{"unmapped_fields_zero_filled", Template{ID: 300, Fields: []TemplateField{
			{Type: FieldIPv4SrcAddr, Length: 4}, {Type: FieldInputSNMP, Length: 2},
			{Type: FieldIPv4DstAddr, Length: 4}, {Type: FieldTCPFlags, Length: 1},
		}}, flows},
	}
	var out []goldenEncode
	for _, c := range cases {
		b, err := EncodeV9(h, c.tmpl, c.recs)
		g := goldenEncode{Name: c.name}
		if err != nil {
			g.Err = err.Error()
		} else {
			g.Hex = hex.EncodeToString(b)
		}
		out = append(out, g)
	}
	return out
}

func goldenV9Datagrams(t testing.TB) []struct {
	name string
	dgs  [][]byte
} {
	flows := goldenSampleFlows()
	full := mustEncodeV9(t, V9Header{UnixSecs: 1653475200, SourceID: 5}, StandardTemplate(), flows)
	tmplOnly := mustEncodeV9(t, V9Header{SourceID: 5}, StandardTemplate(), nil)
	dataOnly := stripTemplateSet(full)
	otherSource := append([]byte{}, dataOnly...)
	otherSource[19] = 6
	v6 := mustEncodeV9(t, V9Header{SourceID: 2}, StandardTemplateV6(), []FlowRecord{goldenV6Flow()})

	// A template of unmapped and short-width fields: 1-byte ports, 4-byte
	// counters under the total-count elements 85/86, and no start time (so
	// the header time fills in).
	oddTmpl := u16s(400, 7,
		FieldIPv4SrcAddr, 4, FieldIPv4DstAddr, 4, FieldL4SrcPort, 1, FieldL4DstPort, 1,
		FieldTotalPkts, 4, FieldTotalBytes, 4, FieldInputSNMP, 2)
	oddRec := []byte{10, 0, 0, 1, 10, 0, 0, 2, 80, 81, 0, 0, 0, 9, 0, 0, 1, 0, 0, 3}
	// Two templates in one set; the data set uses the second. The data
	// set carries one record plus 3 bytes of padding.
	twoTmpls := u16s(500, 1, FieldIPv4SrcAddr, 4, 501, 2, FieldIPv4DstAddr, 4, FieldProtocol, 1)
	// A field type with the high bit set and a 0xFFFF length: v9 has no
	// enterprise bit and no variable-length fields, so both are taken
	// literally and the 65535-byte record never fits.
	highBit := u16s(600, 2, 0x8052, 0xFFFF, FieldProtocol, 1)

	return []struct {
		name string
		dgs  [][]byte
	}{
		{"template_and_data_same_packet", [][]byte{full}},
		{"data_set_padding", [][]byte{mustEncodeV9(t, V9Header{SourceID: 1}, StandardTemplate(), flows[:1])}},
		{"standard_v6", [][]byte{v6}},
		{"unknown_template", [][]byte{dataOnly}},
		{"template_cached_across_packets", [][]byte{tmplOnly, dataOnly, otherSource}},
		{"unmapped_and_short_fields", [][]byte{v9Datagram(1, 2, rawSet(0, oddTmpl...), rawSet(400, oddRec...))}},
		{"two_templates_one_set", [][]byte{v9Datagram(1, 3, rawSet(0, twoTmpls...), rawSet(501, 192, 0, 2, 9, 6, 0, 0, 0))}},
		{"high_bit_and_ffff_length_literal", [][]byte{v9Datagram(1, 2, rawSet(0, highBit...), rawSet(600, make([]byte, 8)...))}},
		{"options_and_reserved_sets_skipped", [][]byte{v9Datagram(5, 3,
			rawSet(1, u16s(700, 4, 0, FieldSamplerID, 1)...), rawSet(2, 1, 2, 3, 4), rawSet(255), dataOnly[20:])}},
		{"template_set_padding_rejected", [][]byte{v9Datagram(1, 1, rawSet(0, cat(u16s(256, 1, FieldProtocol, 1), make([]byte, 4))...))}},
		{"header_only", [][]byte{full[:20]}},
		{"trailing_bytes_below_set_header", [][]byte{append(append([]byte{}, full...), 0, 0, 0)}},
		{"short", [][]byte{full[:19]}},
		{"wrong_version", [][]byte{append([]byte{0, 10}, full[2:]...)}},
		{"set_longer_than_packet", [][]byte{v9Datagram(1, 0, u16s(256, 0xFFFF))}},
		{"set_length_below_header", [][]byte{v9Datagram(1, 0, u16s(256, 2))}},
		{"template_id_below_256", [][]byte{v9Datagram(1, 1, rawSet(0, u16s(255, 1, FieldProtocol, 1)...))}},
		{"template_zero_fields", [][]byte{v9Datagram(1, 1, rawSet(0, u16s(256, 0)...))}},
		{"template_fields_overrun_set", [][]byte{v9Datagram(1, 1, rawSet(0, u16s(256, 3, FieldProtocol, 0, FieldInBytes, 8)...))}},
		{"template_zero_length_field", [][]byte{v9Datagram(1, 1, rawSet(0, u16s(256, 2, FieldProtocol, 0, FieldInBytes, 8)...))}},
	}
}

func goldenV9Decode(t testing.TB) []goldenDecodeCase {
	var out []goldenDecodeCase
	for _, c := range goldenV9Datagrams(t) {
		gc := goldenDecodeCase{Name: c.name}
		cache := NewTemplateCache()
		for _, dg := range c.dgs {
			gc.Datagrams = append(gc.Datagrams, hex.EncodeToString(dg))
			var g goldenDecoded
			p, err := DecodeV9(dg, cache)
			if err != nil {
				g.Err = err.Error()
			} else {
				for _, tm := range p.Templates {
					gt := goldenTemplate{ID: tm.ID}
					for _, f := range tm.Fields {
						gt.Fields = append(gt.Fields, [2]uint16{f.Type, f.Length})
					}
					g.Templates = append(g.Templates, gt)
				}
				g.Records = goldenRecords(p.Records)
				g.UnknownDataSets = p.UnknownDataSets
			}
			gc.Decoded = append(gc.Decoded, g)
		}
		out = append(out, gc)
	}
	return out
}

// TestGoldenV9 replays the golden file: every encode must produce the
// recorded bytes (or error) and every datagram must decode to the
// recorded result.
func TestGoldenV9(t *testing.T) {
	got := goldenV9File{Encode: goldenV9Encodes(t), Decode: goldenV9Decode(t)}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenV9Path), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(filepath.FromSlash(goldenV9Path))
	if err != nil {
		t.Fatal(err)
	}
	var want goldenV9File
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Encode) != len(want.Encode) || len(got.Decode) != len(want.Decode) {
		t.Fatalf("golden case count: got %d/%d, want %d/%d",
			len(got.Encode), len(got.Decode), len(want.Encode), len(want.Decode))
	}
	for i := range want.Encode {
		if got.Encode[i] != want.Encode[i] {
			t.Errorf("encode %s:\ngot  %+v\nwant %+v", want.Encode[i].Name, got.Encode[i], want.Encode[i])
		}
	}
	for i := range want.Decode {
		if !reflect.DeepEqual(got.Decode[i], want.Decode[i]) {
			t.Errorf("decode %s:\ngot  %+v\nwant %+v", want.Decode[i].Name, got.Decode[i], want.Decode[i])
		}
	}
}
