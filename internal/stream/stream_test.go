package stream

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/queue"
)

func testTime() time.Time { return time.Unix(1653475200, 0) }

// testIngest is a queue-backed Ingest for exercising sources without a
// correlator. Its two rings share a bell, as a lane's do; the test is
// their one consumer.
type testIngest struct {
	dns  *queue.Queue[DNSRecord]
	flow *queue.Queue[netflow.FlowRecord]
	bell *queue.Bell
}

func newTestIngest(dnsCap, flowCap int) *testIngest {
	bell := queue.NewBell()
	return &testIngest{
		dns:  queue.New[DNSRecord](dnsCap, bell),
		flow: queue.New[netflow.FlowRecord](flowCap, bell),
		bell: bell,
	}
}

func (t *testIngest) OfferDNSBatch(recs []DNSRecord) int { return t.dns.OfferBatch(recs) }
func (t *testIngest) OfferFlowBatch(frs []netflow.FlowRecord) int {
	return t.flow.OfferBatch(frs)
}

// takeOne dequeues q's next record, parking on bell (q's) until one is
// buffered.
func takeOne[T any](t *testing.T, q *queue.Queue[T], bell *queue.Bell) T {
	t.Helper()
	ready := func() bool { return q.Len() > 0 || q.Drained() }
	var one [1]T
	for {
		if buf := q.Poll(one[:0], 1); len(buf) == 1 {
			return buf[0]
		}
		if q.Drained() {
			t.Fatal("queue closed and drained")
		}
		bell.Wait(ready)
	}
}

func responseAB(t *testing.T) *dnswire.Message {
	t.Helper()
	return &dnswire.Message{
		Header: dnswire.Header{ID: 1, Response: true},
		Questions: []dnswire.Question{
			{Name: "video.service.example", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
		Answers: []dnswire.Record{
			{Name: "video.service.example", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN,
				TTL: 300, Target: "edge7.cdn.example"},
			{Name: "edge7.cdn.example", Type: dnswire.TypeA, Class: dnswire.ClassIN,
				TTL: 60, Addr: netip.MustParseAddr("198.51.100.7")},
		},
	}
}

func TestFlattenResponse(t *testing.T) {
	recs := FlattenResponseInto(nil, responseAB(t), testTime())
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	cname, a := recs[0], recs[1]
	if cname.RType != dnswire.TypeCNAME || cname.Answer != "edge7.cdn.example" ||
		cname.Query != "video.service.example" || cname.TTL != 300 {
		t.Fatalf("cname = %+v", cname)
	}
	if a.RType != dnswire.TypeA || a.Addr != netip.MustParseAddr("198.51.100.7") ||
		a.Query != "edge7.cdn.example" || a.TTL != 60 {
		t.Fatalf("a = %+v", a)
	}
	if a.Answer != "" {
		t.Fatalf("typed A answer also carries a string: %+v", a)
	}
	for _, r := range recs {
		if !r.IsValid() {
			t.Errorf("flattened record invalid: %+v", r)
		}
	}
}

func TestFlattenSkipsNonResponses(t *testing.T) {
	m := responseAB(t)
	m.Header.Response = false
	if got := FlattenResponseInto(nil, m, testTime()); got != nil {
		t.Fatalf("query flattened: %v", got)
	}
	m.Header.Response = true
	m.Header.RCode = dnswire.RCodeNXDomain
	if got := FlattenResponseInto(nil, m, testTime()); got != nil {
		t.Fatalf("NXDOMAIN flattened: %v", got)
	}
	if FlattenResponseInto(nil, nil, testTime()) != nil {
		t.Fatal("nil message flattened")
	}
}

func TestFlattenSkipsOtherTypes(t *testing.T) {
	m := &dnswire.Message{
		Header: dnswire.Header{Response: true},
		Answers: []dnswire.Record{
			{Name: "example.org", Type: dnswire.TypeTXT, TTL: 60, TXT: []string{"x"}},
			{Name: "example.org", Type: dnswire.TypeNS, TTL: 60, Target: "ns1.example.org"},
			{Name: "a.example.org", Type: dnswire.TypeA, TTL: 60,
				Addr: netip.MustParseAddr("192.0.2.1")},
		},
	}
	recs := FlattenResponseInto(nil, m, testTime())
	if len(recs) != 1 || recs[0].RType != dnswire.TypeA {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestDNSRecordIsValid(t *testing.T) {
	good := DNSRecord{Timestamp: testTime(), Query: "q.example", RType: dnswire.TypeA,
		TTL: 60, Answer: "192.0.2.1"}
	if !good.IsValid() {
		t.Error("good record rejected")
	}
	bad := []DNSRecord{
		{},
		{Timestamp: testTime(), Query: "q", RType: dnswire.TypeTXT, Answer: "x"},
		{Timestamp: testTime(), RType: dnswire.TypeA, Answer: "x"},
		{Timestamp: testTime(), Query: "q", RType: dnswire.TypeA},
	}
	for i, r := range bad {
		if r.IsValid() {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 65535)}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range msgs {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d mismatch: %d vs %d bytes", i, len(got), len(want))
		}
		scratch = got[:0]
	}
	if err := WriteFrame(&buf, make([]byte, 65536)); err != ErrMessageTooLarge {
		t.Fatalf("oversize err = %v", err)
	}
}

func TestReadFrameShort(t *testing.T) {
	if _, err := ReadFrame(strings.NewReader("\x00"), nil); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := ReadFrame(strings.NewReader("\x00\x05ab"), nil); err == nil {
		t.Fatal("short body accepted")
	}
}

func TestDNSTCPEndToEnd(t *testing.T) {
	client, server := net.Pipe()
	in := newTestIngest(64, 64)
	src := NewDNSTCPSource(server)
	src.Clock = testTime
	done := make(chan error, 1)
	go func() { done <- src.Run(context.Background(), in) }()

	sink := NewDNSTCPSink(client)
	const n = 10
	for i := 0; i < n; i++ {
		if err := sink.Send(responseAB(t)); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if st.Frames != n || st.Records != 2*n || st.DecodeError != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if in.dns.Len() != 2*n {
		t.Fatalf("queued = %d, want %d", in.dns.Len(), 2*n)
	}
	rec := takeOne(t, in.dns, in.bell)
	if rec.Timestamp != testTime() {
		t.Fatalf("clock not applied: %v", rec.Timestamp)
	}
}

func TestDNSTCPCancelStopsSource(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	in := newTestIngest(4, 4)
	src := NewDNSTCPSource(server)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()
	cancel() // closes the conn, unblocking the read
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled source returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("source did not stop on cancellation")
	}
}

func TestDNSTCPDecodeErrorCounted(t *testing.T) {
	client, server := net.Pipe()
	in := newTestIngest(4, 4)
	src := NewDNSTCPSource(server)
	done := make(chan error, 1)
	go func() { done <- src.Run(context.Background(), in) }()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		WriteFrame(client, []byte{1, 2, 3}) // not a DNS message
		client.Close()
	}()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.DecodeError != 1 || st.Records != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDNSTCPIngestOverflowDrops(t *testing.T) {
	client, server := net.Pipe()
	in := newTestIngest(1, 1) // tiny stage buffer: must drop
	src := NewDNSTCPSource(server)
	done := make(chan error, 1)
	go func() { done <- src.Run(context.Background(), in) }()
	sink := NewDNSTCPSink(client)
	for i := 0; i < 5; i++ {
		if err := sink.Send(responseAB(t)); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	<-done
	st := src.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no drops recorded on overflow: %+v", st)
	}
	if st.Records != 10 {
		t.Fatalf("accounting broken: %+v", st)
	}
	if qs := in.dns.Stats(); qs.Enqueued+qs.Dropped != 10 {
		t.Fatalf("queue accounting broken: %+v", qs)
	}
}

func TestFlowUDPIngestV5AndV9(t *testing.T) {
	in := newTestIngest(64, 64)
	src := &FlowUDPSource{cache: netflow.NewTemplateCache()}

	v5recs := []netflow.V5Record{{SrcAddr: [4]byte{10, 0, 0, 1}, DstAddr: [4]byte{10, 0, 0, 2},
		Packets: 1, Octets: 100, Proto: netflow.ProtoTCP}}
	pkt5, err := netflow.EncodeV5(netflow.V5Header{UnixSecs: 1653475200}, v5recs)
	if err != nil {
		t.Fatal(err)
	}
	src.ingest(pkt5, in)

	fr := netflow.FlowRecord{
		Timestamp: time.UnixMilli(1653475200500),
		SrcIP:     netip.MustParseAddr("198.51.100.9"),
		DstIP:     netip.MustParseAddr("203.0.113.1"),
		Packets:   2, Bytes: 3000, Proto: netflow.ProtoUDP,
	}
	pkt9, err := netflow.EncodeV9(netflow.V9Header{SourceID: 1}, netflow.StandardTemplate(),
		[]netflow.FlowRecord{fr})
	if err != nil {
		t.Fatal(err)
	}
	src.ingest(pkt9, in)

	src.ingest([]byte{0, 3, 0, 0}, in) // unknown version
	src.ingest([]byte{9}, in)          // too short
	src.ingest(make([]byte, 24), in)   // version 0

	st := src.Stats()
	if st.Records != 2 {
		t.Fatalf("records = %d", st.Records)
	}
	if st.DecodeError != 3 {
		t.Fatalf("decode errors = %d", st.DecodeError)
	}
	r1 := takeOne(t, in.flow, in.bell)
	if r1.SrcIP != netip.MustParseAddr("10.0.0.1") || r1.Bytes != 100 {
		t.Fatalf("v5 record = %+v", r1)
	}
	r2 := takeOne(t, in.flow, in.bell)
	if r2.SrcIP != fr.SrcIP || r2.Bytes != fr.Bytes {
		t.Fatalf("v9 record = %+v", r2)
	}
}

func TestFlowUDPEndToEnd(t *testing.T) {
	lc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := newTestIngest(256, 256)
	src := NewFlowUDPSource(lc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()

	conn, err := net.Dial("udp", lc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewFlowUDPSink(conn, 7, 10)
	base := time.Unix(1653475200, 0)
	const n = 25
	for i := 0; i < n; i++ {
		err := sink.Send(netflow.FlowRecord{
			Timestamp: base.Add(time.Duration(i) * time.Millisecond),
			SrcIP:     netip.AddrFrom4([4]byte{10, 9, 0, byte(i)}),
			DstIP:     netip.AddrFrom4([4]byte{10, 8, 0, byte(i)}),
			Packets:   1, Bytes: uint64(100 + i), Proto: netflow.ProtoTCP,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got < n; {
		if in.flow.Len() > 0 {
			takeOne(t, in.flow, in.bell)
			got++
			continue
		}
		select {
		case <-deadline:
			t.Fatalf("timed out with %d/%d records", got, n)
		case <-time.After(time.Millisecond):
		}
	}
	cancel() // closes the socket and stops the source
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

func TestDNSListenerMultipleStreams(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := newTestIngest(256, 256)
	src := NewDNSListener(ln)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()

	// Two concurrent DNS streams into one listener, as at the paper's
	// large ISP.
	const perStream = 5
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sink := NewDNSTCPSink(conn)
			for i := 0; i < perStream; i++ {
				if err := sink.Send(responseAB(t)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.After(5 * time.Second)
	for in.dns.Len() < 2*2*perStream {
		select {
		case <-deadline:
			t.Fatalf("only %d records arrived", in.dns.Len())
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.Frames != 2*perStream || st.Records != 2*2*perStream {
		t.Fatalf("aggregated stats = %+v", st)
	}
}

func TestFlowUDPIngestIPFIX(t *testing.T) {
	in := newTestIngest(16, 16)
	src := NewFlowUDPSource(nil)
	fr := netflow.FlowRecord{
		Timestamp: time.UnixMilli(1653475200999),
		SrcIP:     netip.MustParseAddr("198.51.100.77"),
		DstIP:     netip.MustParseAddr("203.0.113.3"),
		SrcPort:   443, DstPort: 55555, Proto: netflow.ProtoTCP,
		Packets: 7, Bytes: 4096,
	}
	pkt, err := ipfix.Encode(ipfix.Header{DomainID: 4, ExportTime: 1653475200},
		ipfix.StandardTemplate(), []netflow.FlowRecord{fr})
	if err != nil {
		t.Fatal(err)
	}
	src.ingest(pkt, in)
	st := src.Stats()
	if st.Records != 1 || st.DecodeError != 0 {
		t.Fatalf("stats = %+v", st)
	}
	got := takeOne(t, in.flow, in.bell)
	if got.SrcIP != fr.SrcIP || got.Bytes != fr.Bytes || !got.Timestamp.Equal(fr.Timestamp) {
		t.Fatalf("ipfix record = %+v", got)
	}
	// A second data-only message must resolve via the cached template.
	pkt2, err := ipfix.Encode(ipfix.Header{DomainID: 4}, ipfix.StandardTemplate(),
		[]netflow.FlowRecord{fr})
	if err != nil {
		t.Fatal(err)
	}
	src.ingest(pkt2, in)
	if st := src.Stats(); st.Records != 2 {
		t.Fatalf("cached ipfix decode failed: %+v", st)
	}
}

func TestDNSTCPFragmentedFrames(t *testing.T) {
	// A slow sender dribbles the frame header and body across separate
	// writes; ReadFrame must reassemble via io.ReadFull.
	client, server := net.Pipe()
	in := newTestIngest(16, 16)
	src := NewDNSTCPSource(server)
	done := make(chan error, 1)
	go func() { done <- src.Run(context.Background(), in) }()

	wire, err := dnswire.Encode(responseAB(t))
	if err != nil {
		t.Fatal(err)
	}
	framed := make([]byte, 2+len(wire))
	framed[0] = byte(len(wire) >> 8)
	framed[1] = byte(len(wire))
	copy(framed[2:], wire)
	for i := 0; i < len(framed); i += 3 {
		end := i + 3
		if end > len(framed) {
			end = len(framed)
		}
		if _, err := client.Write(framed[i:end]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond / 4)
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.Frames != 1 || st.Records != 2 {
		t.Fatalf("fragmented delivery stats = %+v", st)
	}
}
