package ipfix

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netflow"
)

func sampleFlows() []netflow.FlowRecord {
	return []netflow.FlowRecord{
		{
			Timestamp: time.UnixMilli(1653475200123),
			SrcIP:     netip.MustParseAddr("198.51.100.7"),
			DstIP:     netip.MustParseAddr("203.0.113.9"),
			SrcPort:   443, DstPort: 51234, Proto: netflow.ProtoTCP,
			Packets: 99, Bytes: 123456,
		},
		{
			Timestamp: time.UnixMilli(1653475201000),
			SrcIP:     netip.MustParseAddr("192.0.2.1"),
			DstIP:     netip.MustParseAddr("198.51.100.99"),
			SrcPort:   53, DstPort: 40000, Proto: netflow.ProtoUDP,
			Packets: 1, Bytes: 80,
		},
	}
}

func TestRoundTrip(t *testing.T) {
	cache := NewCache()
	flows := sampleFlows()
	pkt, err := Encode(Header{ExportTime: 1653475200, DomainID: 7, SequenceNumber: 3},
		StandardTemplate(), flows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(pkt, cache)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.DomainID != 7 || m.Header.SequenceNumber != 3 {
		t.Fatalf("header = %+v", m.Header)
	}
	if len(m.Templates) != 1 || m.Templates[0].ID != 256 || len(m.Templates[0].Fields) != 8 {
		t.Fatalf("templates = %+v", m.Templates)
	}
	if len(m.Records) != 2 {
		t.Fatalf("records = %d", len(m.Records))
	}
	for i, want := range flows {
		g := m.Records[i]
		if g.SrcIP != want.SrcIP || g.DstIP != want.DstIP || g.Bytes != want.Bytes ||
			g.Packets != want.Packets || g.SrcPort != want.SrcPort ||
			g.DstPort != want.DstPort || g.Proto != want.Proto ||
			!g.Timestamp.Equal(want.Timestamp) {
			t.Fatalf("record %d: got %+v want %+v", i, g, want)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d", cache.Len())
	}
}

func TestRoundTripIPv6(t *testing.T) {
	fr := netflow.FlowRecord{
		Timestamp: time.UnixMilli(1653475200000),
		SrcIP:     netip.MustParseAddr("2001:db8::7"),
		DstIP:     netip.MustParseAddr("2001:db8:1::9"),
		SrcPort:   443, DstPort: 50000, Proto: netflow.ProtoTCP, Packets: 5, Bytes: 7000,
	}
	pkt, err := Encode(Header{DomainID: 2}, StandardTemplateV6(), []netflow.FlowRecord{fr})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(pkt, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 || m.Records[0].SrcIP != fr.SrcIP {
		t.Fatalf("v6 = %+v", m.Records)
	}
}

func TestCacheAcrossMessages(t *testing.T) {
	cache := NewCache()
	tmpl := StandardTemplate()
	p1, err := Encode(Header{DomainID: 5}, tmpl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(p1, cache); err != nil {
		t.Fatal(err)
	}
	// Hand-build a data-only message for template 256.
	fr := sampleFlows()[0]
	full, err := Encode(Header{DomainID: 5}, tmpl, []netflow.FlowRecord{fr})
	if err != nil {
		t.Fatal(err)
	}
	tmplSetLen := int(binary.BigEndian.Uint16(full[18:]))
	dataOnly := append(append([]byte{}, full[:16]...), full[16+tmplSetLen:]...)
	binary.BigEndian.PutUint16(dataOnly[2:], uint16(len(dataOnly)))
	m, err := Decode(dataOnly, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 || m.Records[0].SrcIP != fr.SrcIP {
		t.Fatalf("cached decode = %+v", m.Records)
	}
	// Different observation domain: template must not leak.
	dataOnly[15] = 6
	m2, err := Decode(dataOnly, cache)
	if err != nil {
		t.Fatal(err)
	}
	if m2.UnknownDataSets != 1 || len(m2.Records) != 0 {
		t.Fatalf("template leaked: %+v", m2)
	}
}

func TestEnterpriseFieldSkipped(t *testing.T) {
	// Template with a 4-byte enterprise-specific field between standard
	// fields: the value must be skipped, standard fields still decoded.
	tmpl := Template{
		ID: 300,
		Fields: []FieldSpec{
			{Type: IESourceIPv4Address, Length: 4},
			{Type: 77, Length: 4, Enterprise: 29305},
			{Type: IEOctetDeltaCount, Length: 8},
		},
	}
	fr := netflow.FlowRecord{
		SrcIP: netip.MustParseAddr("10.0.0.1"),
		DstIP: netip.MustParseAddr("10.0.0.2"),
		Bytes: 4242,
	}
	pkt, err := Encode(Header{DomainID: 1, ExportTime: 1000}, tmpl, []netflow.FlowRecord{fr})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(pkt, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Templates) != 1 || m.Templates[0].Fields[1].Enterprise != 29305 {
		t.Fatalf("enterprise spec lost: %+v", m.Templates)
	}
	if len(m.Records) != 1 || m.Records[0].Bytes != 4242 {
		t.Fatalf("records = %+v", m.Records)
	}
	if m.Records[0].Timestamp.Unix() != 1000 {
		t.Fatalf("export-time fallback not applied: %v", m.Records[0].Timestamp)
	}
}

func TestVariableLengthField(t *testing.T) {
	// Template with a variable-length interfaceName between fixed fields.
	tmpl := Template{
		ID: 301,
		Fields: []FieldSpec{
			{Type: IESourceIPv4Address, Length: 4},
			{Type: IEInterfaceName, Length: netflow.VarLen},
			{Type: IEOctetDeltaCount, Length: 8},
		},
	}
	// Hand-encode one record: src, varlen "eth0", bytes.
	var body []byte
	body = append(body, 10, 0, 0, 9)
	body = append(body, 4)
	body = append(body, "eth0"...)
	body = binary.BigEndian.AppendUint64(body, 777)

	var pkt []byte
	pkt = make([]byte, 16)
	// template set
	ts := []byte{0, 2, 0, 0, 1, 45, 0, 3}
	ts = append(ts, 0, IESourceIPv4Address, 0, 4)
	ts = append(ts, 0, IEInterfaceName, 0xFF, 0xFF)
	ts = append(ts, 0, IEOctetDeltaCount, 0, 8)
	binary.BigEndian.PutUint16(ts[2:], uint16(len(ts)))
	pkt = append(pkt, ts...)
	ds := []byte{1, 45, 0, 0}
	ds = append(ds, body...)
	binary.BigEndian.PutUint16(ds[2:], uint16(len(ds)))
	pkt = append(pkt, ds...)
	binary.BigEndian.PutUint16(pkt[0:], Version)
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(pkt)))
	binary.BigEndian.PutUint32(pkt[4:], 1653475200)

	m, err := Decode(pkt, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 {
		t.Fatalf("records = %d", len(m.Records))
	}
	if m.Records[0].SrcIP != netip.MustParseAddr("10.0.0.9") || m.Records[0].Bytes != 777 {
		t.Fatalf("record = %+v", m.Records[0])
	}
	_ = tmpl
}

func TestVariableLengthLongForm(t *testing.T) {
	// 255-prefixed 2-byte length form (RFC 7011 §7).
	var rec []byte
	rec = append(rec, 10, 0, 0, 1)
	rec = append(rec, 255, 0x01, 0x04) // 260 bytes follow
	rec = append(rec, make([]byte, 260)...)
	rec = binary.BigEndian.AppendUint64(rec, 55)
	pkt := make([]byte, 16)
	pkt = append(pkt, 0, 2, 0, 20, 1, 46, 0, 3) // template set, template 302
	pkt = append(pkt, 0, IESourceIPv4Address, 0, 4)
	pkt = append(pkt, 0, IEApplicationName, 0xFF, 0xFF)
	pkt = append(pkt, 0, IEOctetDeltaCount, 0, 8)
	pkt = binary.BigEndian.AppendUint16(pkt, 302)
	pkt = binary.BigEndian.AppendUint16(pkt, uint16(4+len(rec)))
	pkt = append(pkt, rec...)
	binary.BigEndian.PutUint16(pkt[0:], Version)
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(pkt)))
	m, err := Decode(pkt, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 || m.Records[0].Bytes != 55 {
		t.Fatalf("records = %+v", m.Records)
	}
}

// TestTotalCountElements pins that octetTotalCount(85) and
// packetTotalCount(86) fill Bytes and Packets, as they do in NetFlow v9:
// both dialects read through one field table.
func TestTotalCountElements(t *testing.T) {
	pkt := make([]byte, 16)
	pkt = append(pkt, 0, 2, 0, 20, 1, 47, 0, 3) // template set, template 303
	pkt = append(pkt, 0, IESourceIPv4Address, 0, 4)
	pkt = append(pkt, 0, netflow.FieldTotalBytes, 0, 8)
	pkt = append(pkt, 0, netflow.FieldTotalPkts, 0, 4)
	pkt = append(pkt, 1, 47, 0, 4+16)
	pkt = append(pkt, 10, 0, 0, 1)
	pkt = binary.BigEndian.AppendUint64(pkt, 123456)
	pkt = binary.BigEndian.AppendUint32(pkt, 99)
	binary.BigEndian.PutUint16(pkt[0:], Version)
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(pkt)))
	m, err := Decode(pkt, NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 1 || m.Records[0].Bytes != 123456 || m.Records[0].Packets != 99 {
		t.Fatalf("records = %+v, want Bytes 123456 Packets 99", m.Records)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 4), nil); err != ErrShort {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, 16)
	bad[1] = 9
	binary.BigEndian.PutUint16(bad[2:], 16)
	if _, err := Decode(bad, nil); err != ErrVersion {
		t.Errorf("version: %v", err)
	}
	lenMismatch := make([]byte, 16)
	binary.BigEndian.PutUint16(lenMismatch[0:], Version)
	binary.BigEndian.PutUint16(lenMismatch[2:], 99)
	if _, err := Decode(lenMismatch, nil); err != ErrLength {
		t.Errorf("length: %v", err)
	}
	// Set claiming more than the message holds.
	overrun := make([]byte, 24)
	binary.BigEndian.PutUint16(overrun[0:], Version)
	binary.BigEndian.PutUint16(overrun[2:], 24)
	binary.BigEndian.PutUint16(overrun[16:], 2)
	binary.BigEndian.PutUint16(overrun[18:], 100)
	if _, err := Decode(overrun, nil); err != ErrSetLength {
		t.Errorf("set length: %v", err)
	}
	if _, err := Encode(Header{}, Template{ID: 10}, nil); err != ErrTemplateScope {
		t.Errorf("template scope: %v", err)
	}
}

func TestOptionsTemplateSkipped(t *testing.T) {
	pkt := make([]byte, 16)
	opts := []byte{0, 3, 0, 8, 1, 44, 0, 0}
	pkt = append(pkt, opts...)
	binary.BigEndian.PutUint16(pkt[0:], Version)
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(pkt)))
	m, err := Decode(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.SkippedOptions != 1 {
		t.Fatalf("SkippedOptions = %d", m.SkippedOptions)
	}
}

// Property: the decoder never panics on arbitrary bytes.
func TestQuickDecodeNeverPanics(t *testing.T) {
	cache := NewCache()
	f := func(data []byte) bool {
		_, _ = Decode(data, cache)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode→decode is the identity on standard-template records.
func TestQuickRoundTrip(t *testing.T) {
	f := func(src, dst [4]byte, sp, dp uint16, proto uint8, pkts, bytes uint32, ms uint32) bool {
		fr := netflow.FlowRecord{
			Timestamp: time.UnixMilli(int64(ms) + 1),
			SrcIP:     netip.AddrFrom4(src), DstIP: netip.AddrFrom4(dst),
			SrcPort: sp, DstPort: dp, Proto: proto,
			Packets: uint64(pkts), Bytes: uint64(bytes),
		}
		pkt, err := Encode(Header{DomainID: 1}, StandardTemplate(), []netflow.FlowRecord{fr})
		if err != nil {
			return false
		}
		m, err := Decode(pkt, NewCache())
		if err != nil || len(m.Records) != 1 {
			return false
		}
		g := m.Records[0]
		return g.SrcIP == fr.SrcIP && g.DstIP == fr.DstIP && g.SrcPort == sp &&
			g.DstPort == dp && g.Proto == proto && g.Packets == uint64(pkts) &&
			g.Bytes == uint64(bytes) && g.Timestamp.Equal(fr.Timestamp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecode(b *testing.B) {
	pkt, err := Encode(Header{DomainID: 1, ExportTime: 1}, StandardTemplate(), sampleFlows())
	if err != nil {
		b.Fatal(err)
	}
	cache := NewCache()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(pkt, cache); err != nil {
			b.Fatal(err)
		}
	}
}
