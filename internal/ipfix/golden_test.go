package ipfix

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

	"repro/internal/netflow"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current codec")

// The golden file pins the codec's wire behaviour: the exact bytes Encode
// writes, and what Decode makes of a fixed set of messages (records,
// templates, unknown data sets, skipped options sets and the error). It is
// reference output; regenerate it with -update only for a deliberate wire
// change.
const goldenPath = "testdata/golden.json"

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
	Fields [][3]uint32 `json:"fields"` // (element, length, enterprise)
}

type goldenDecoded struct {
	Templates       []goldenTemplate `json:"templates,omitempty"`
	Records         []goldenRecord   `json:"records,omitempty"`
	UnknownDataSets int              `json:"unknown_data_sets,omitempty"`
	SkippedOptions  int              `json:"skipped_options,omitempty"`
	Err             string           `json:"error,omitempty"`
}

// goldenDecodeCase is a run of messages decoded in order against one
// fresh template cache.
type goldenDecodeCase struct {
	Name      string          `json:"name"`
	Datagrams []string        `json:"datagrams"`
	Decoded   []goldenDecoded `json:"decoded"`
}

type goldenFile struct {
	Encode []goldenEncode     `json:"encode"`
	Decode []goldenDecodeCase `json:"decode"`
}

func goldenV6Flow() netflow.FlowRecord {
	return netflow.FlowRecord{Timestamp: time.UnixMilli(1653475200000),
		SrcIP: netip.MustParseAddr("2001:db8::7"), DstIP: netip.MustParseAddr("2001:db8:1::9"),
		SrcPort: 443, DstPort: 50000, Proto: netflow.ProtoTCP, Packets: 5, Bytes: 7000}
}

// message assembles an IPFIX message from raw sets; the header's length
// word is the true message length.
func message(domain uint32, sets ...[]byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, Version)
	b = binary.BigEndian.AppendUint16(b, 0)
	b = binary.BigEndian.AppendUint32(b, 1653475200) // export time
	b = binary.BigEndian.AppendUint32(b, 9)          // sequence
	b = binary.BigEndian.AppendUint32(b, domain)
	for _, s := range sets {
		b = append(b, s...)
	}
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	return b
}

// rawSet frames body as one set; the length word covers the set header.
func rawSet(id uint16, body ...byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, id)
	b = binary.BigEndian.AppendUint16(b, uint16(4+len(body)))
	return append(b, body...)
}

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

func mustEncode(t testing.TB, h Header, tmpl Template, recs []netflow.FlowRecord) []byte {
	t.Helper()
	b, err := Encode(h, tmpl, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stripTemplateSet drops the first set after the header and fixes the
// header length, leaving a data-only message.
func stripTemplateSet(pkt []byte) []byte {
	n := int(binary.BigEndian.Uint16(pkt[18:]))
	b := append(append([]byte{}, pkt[:16]...), pkt[16+n:]...)
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	return b
}

func goldenEncodes(t testing.TB) []goldenEncode {
	h := Header{ExportTime: 1653475200, SequenceNumber: 3, DomainID: 7}
	flows := sampleFlows()
	cases := []struct {
		name string
		tmpl Template
		recs []netflow.FlowRecord
	}{
		{"standard_v4_two_records", StandardTemplate(), flows},
		{"standard_v4_one_record_unpadded", StandardTemplate(), flows[:1]},
		{"standard_v4_template_only", StandardTemplate(), nil},
		{"standard_v6_one_record", StandardTemplateV6(), []netflow.FlowRecord{goldenV6Flow()}},
		{"standard_v6_template_only", StandardTemplateV6(), nil},
		{"standard_v4_with_v6_record", StandardTemplate(), []netflow.FlowRecord{goldenV6Flow()}},
		{"template_id_below_256", Template{ID: 10}, nil},
		{"enterprise_and_variable_fields", Template{ID: 300, Fields: []FieldSpec{
			{Type: IESourceIPv4Address, Length: 4},
			{Type: 77, Length: 4, Enterprise: 29305},
			{Type: IEInterfaceName, Length: 0xFFFF},
			{Type: IEOctetDeltaCount, Length: 8},
		}}, flows},
	}
	var out []goldenEncode
	for _, c := range cases {
		b, err := Encode(h, c.tmpl, c.recs)
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

func goldenDatagrams(t testing.TB) []struct {
	name string
	dgs  [][]byte
} {
	flows := sampleFlows()
	full := mustEncode(t, Header{ExportTime: 1653475200, DomainID: 5}, StandardTemplate(), flows)
	tmplOnly := mustEncode(t, Header{DomainID: 5}, StandardTemplate(), nil)
	dataOnly := stripTemplateSet(full)
	otherDomain := append([]byte{}, dataOnly...)
	otherDomain[15] = 6
	v6 := mustEncode(t, Header{DomainID: 2}, StandardTemplateV6(), []netflow.FlowRecord{goldenV6Flow()})

	// sourceIPv4Address, a 4-byte enterprise element (29305/77), octets.
	entTmpl := cat(u16s(300, 3, IESourceIPv4Address, 4, 0x8000|77, 4), []byte{0, 0, 0x72, 0x79}, u16s(IEOctetDeltaCount, 8))
	entRec := cat([]byte{10, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF}, binary.BigEndian.AppendUint64(nil, 4242))
	// sourceIPv4Address, variable-length interfaceName, octets.
	varTmpl := u16s(301, 3, IESourceIPv4Address, 4, IEInterfaceName, 0xFFFF, IEOctetDeltaCount, 8)
	varShort := cat([]byte{10, 0, 0, 9, 4}, []byte("eth0"), binary.BigEndian.AppendUint64(nil, 777))
	varLong := cat([]byte{10, 0, 0, 1, 255, 0x01, 0x04}, make([]byte, 260), binary.BigEndian.AppendUint64(nil, 55))
	varEmpty := cat([]byte{10, 0, 0, 3, 0}, binary.BigEndian.AppendUint64(nil, 1))

	return []struct {
		name string
		dgs  [][]byte
	}{
		{"template_and_data_same_message", [][]byte{full}},
		{"standard_v6", [][]byte{v6}},
		{"unknown_template", [][]byte{dataOnly}},
		{"template_cached_across_messages", [][]byte{tmplOnly, dataOnly, otherDomain}},
		{"fixed_data_set_padding", [][]byte{message(5, full[16:16+int(binary.BigEndian.Uint16(full[18:]))],
			rawSet(256, cat(full[len(full)-37:], []byte{0, 0, 0})...))}},
		{"enterprise_field", [][]byte{message(1, rawSet(2, entTmpl...), rawSet(300, entRec...))}},
		{"variable_length_short_form", [][]byte{message(1, rawSet(2, varTmpl...), rawSet(301, varShort...))}},
		{"variable_length_long_form", [][]byte{message(1, rawSet(2, varTmpl...), rawSet(301, varLong...))}},
		{"variable_length_records_then_padding", [][]byte{message(1, rawSet(2, varTmpl...), rawSet(301, cat(varShort, varEmpty, []byte{0, 0, 0})...))}},
		{"variable_length_overrun", [][]byte{message(1, rawSet(2, varTmpl...), rawSet(301, 10, 0, 0, 9, 200, 1, 2))}},
		{"variable_length_long_form_truncated", [][]byte{message(1, rawSet(2, varTmpl...), rawSet(301, 10, 0, 0, 9, 255, 1))}},
		{"options_template_set", [][]byte{message(1, rawSet(3, u16s(300, 0)...), rawSet(3, 1, 2, 3, 4))}},
		{"reserved_sets_skipped", [][]byte{message(5, rawSet(0, 1, 2, 3, 4), rawSet(1), rawSet(255), dataOnly[16:])}},
		{"template_set_padding", [][]byte{message(1, rawSet(2, cat(u16s(256, 1, IEProtocolIdentifier, 1), make([]byte, 4), u16s(257, 1, IEProtocolIdentifier, 1))...),
			rawSet(256, 6, 17, 0, 0))}},
		{"header_length_mismatch", [][]byte{append(append([]byte{}, full...), 0)}},
		{"header_only", [][]byte{message(1)}},
		{"trailing_bytes_below_set_header", [][]byte{message(5, full[16:], []byte{0, 0, 0})}},
		{"short", [][]byte{full[:15]}},
		{"wrong_version", [][]byte{append([]byte{0, 9}, full[2:]...)}},
		{"set_longer_than_message", [][]byte{message(1, u16s(256, 0xFFFF))}},
		{"set_length_below_header", [][]byte{message(1, u16s(256, 2))}},
		{"template_id_below_256", [][]byte{message(1, rawSet(2, u16s(255, 1, IEProtocolIdentifier, 1)...))}},
		{"template_zero_fields", [][]byte{message(1, rawSet(2, u16s(256, 0)...))}},
		{"template_zero_length_field", [][]byte{message(1, rawSet(2, u16s(256, 2, IEProtocolIdentifier, 0, IEOctetDeltaCount, 8)...))}},
		{"template_fields_overrun_set", [][]byte{message(1, rawSet(2, u16s(256, 3, IEProtocolIdentifier, 1, IEOctetDeltaCount, 8)...))}},
		{"template_enterprise_number_truncated", [][]byte{message(1, rawSet(2, u16s(256, 1, 0x8000|77, 4, 0)...))}},
	}
}

func goldenDecode(t testing.TB) []goldenDecodeCase {
	var out []goldenDecodeCase
	for _, c := range goldenDatagrams(t) {
		gc := goldenDecodeCase{Name: c.name}
		cache := NewCache()
		for _, dg := range c.dgs {
			gc.Datagrams = append(gc.Datagrams, hex.EncodeToString(dg))
			var g goldenDecoded
			m, err := Decode(dg, cache)
			if err != nil {
				g.Err = err.Error()
			} else {
				for _, tm := range m.Templates {
					gt := goldenTemplate{ID: tm.ID}
					for _, f := range tm.Fields {
						gt.Fields = append(gt.Fields, [3]uint32{uint32(f.Type), uint32(f.Length), f.Enterprise})
					}
					g.Templates = append(g.Templates, gt)
				}
				for _, r := range m.Records {
					g.Records = append(g.Records, goldenRecord{r.Timestamp.UnixNano(), r.SrcIP.String(), r.DstIP.String(),
						r.SrcPort, r.DstPort, r.Proto, r.Packets, r.Bytes})
				}
				g.UnknownDataSets = m.UnknownDataSets
				g.SkippedOptions = m.SkippedOptions
			}
			gc.Decoded = append(gc.Decoded, g)
		}
		out = append(out, gc)
	}
	return out
}

// TestGolden replays the golden file: every encode must produce the
// recorded bytes (or error) and every message must decode to the
// recorded result.
func TestGolden(t *testing.T) {
	got := goldenFile{Encode: goldenEncodes(t), Decode: goldenDecode(t)}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenPath), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
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
