package stream

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netflow"
	"repro/internal/queue"
)

// captureConn is a net.Conn stub whose Write can be forced to fail and
// which records every successfully written datagram.
type captureConn struct {
	net.Conn // panic on anything not overridden
	failing  bool
	packets  [][]byte
}

var errConnDown = errors.New("conn down")

func (c *captureConn) Write(p []byte) (int, error) {
	if c.failing {
		return 0, errConnDown
	}
	c.packets = append(c.packets, append([]byte(nil), p...))
	return len(p), nil
}

func v9Flow(i int) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: testTime().Add(time.Duration(i) * time.Millisecond),
		SrcIP:     netip.AddrFrom4([4]byte{10, 9, 0, byte(i)}),
		DstIP:     netip.AddrFrom4([4]byte{10, 8, 0, byte(i)}),
		Packets:   1, Bytes: uint64(100 + i), Proto: netflow.ProtoTCP,
	}
}

// A failed conn.Write must leave the batch and the sequence number intact,
// so a retried Flush delivers exactly the records that failed — nothing
// silently discarded, no sequence gap for the collector to read as loss.
func TestFlowUDPSinkFlushFailedWrite(t *testing.T) {
	conn := &captureConn{failing: true}
	sink := NewFlowUDPSink(conn, 7, 10)
	for i := 0; i < 3; i++ {
		if err := sink.Send(v9Flow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); !errors.Is(err, errConnDown) {
		t.Fatalf("Flush = %v, want conn error", err)
	}
	if len(sink.batch) != 3 {
		t.Fatalf("failed write discarded the batch: %d records left, want 3", len(sink.batch))
	}
	if sink.seq != 0 {
		t.Fatalf("failed write consumed sequence number %d", sink.seq)
	}

	// Retry after the conn heals: same records, first sequence number.
	conn.failing = false
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.batch) != 0 || sink.seq != 1 {
		t.Fatalf("after successful retry: batch=%d seq=%d, want 0/1", len(sink.batch), sink.seq)
	}
	if len(conn.packets) != 1 {
		t.Fatalf("packets written = %d, want 1", len(conn.packets))
	}
	// Decode the delivered datagram: every batched record arrives once,
	// under sequence 1.
	p, err := netflow.DecodeV9(conn.packets[0], netflow.NewTemplateCache())
	if err != nil {
		t.Fatal(err)
	}
	if p.Header.SequenceNum != 1 {
		t.Fatalf("sequence = %d, want 1", p.Header.SequenceNum)
	}
	if len(p.Records) != 3 {
		t.Fatalf("delivered records = %d, want 3", len(p.Records))
	}
	for i, r := range p.Records {
		if r.Bytes != uint64(100+i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// A failed encode must not consume a sequence number either: the datagram
// was never built, so nothing was sent and seq must still match what the
// collector has seen.
func TestFlowUDPSinkEncodeFailureKeepsSeq(t *testing.T) {
	conn := &captureConn{}
	sink := NewFlowUDPSink(conn, 7, 10)
	if err := sink.Send(v9Flow(0)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.seq != 1 {
		t.Fatalf("seq = %d after first flush, want 1", sink.seq)
	}
	// The standard template is IPv4-only; an IPv6 record fails EncodeV9.
	bad := v9Flow(1)
	bad.SrcIP = netip.MustParseAddr("2001:db8::1")
	if err := sink.Send(bad); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err == nil {
		t.Fatal("Flush succeeded encoding an IPv6 record under the IPv4 template")
	}
	if sink.seq != 1 {
		t.Fatalf("failed encode consumed sequence number: seq = %d, want 1", sink.seq)
	}
	if len(conn.packets) != 1 {
		t.Fatalf("packets = %d, want 1 (the failed encode must not send)", len(conn.packets))
	}

	// The next successful flush uses the next sequence number with no gap.
	sink.batch = sink.batch[:0] // caller drops the unencodable batch
	if err := sink.Send(v9Flow(2)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := netflow.DecodeV9(conn.packets[1], netflow.NewTemplateCache())
	if err != nil {
		t.Fatal(err)
	}
	if p.Header.SequenceNum != 2 {
		t.Fatalf("sequence = %d, want 2 (no gap)", p.Header.SequenceNum)
	}
}

// encodeDatagram builds one v9 datagram carrying recs.
func encodeDatagram(t *testing.T, recs []netflow.FlowRecord) []byte {
	t.Helper()
	pkt, err := netflow.EncodeV9(netflow.V9Header{SequenceNum: 1, SourceID: 7,
		UnixSecs: uint32(testTime().Unix())}, netflow.StandardTemplate(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// SourceStats.Dropped must equal the queue's Dropped delta for the same
// batch: both sides of the handoff account the identical records as lost,
// so an operator comparing source counters against /metrics queue counters
// never sees phantom loss on either side.
func TestFlowUDPSourceDropAccountingMatchesQueue(t *testing.T) {
	recs := make([]netflow.FlowRecord, 8)
	for i := range recs {
		recs[i] = v9Flow(i)
	}
	pkt := encodeDatagram(t, recs)

	// Queue of 3 with no consumer: 8 offered, 3 enqueued, 5 dropped.
	in := newTestIngest(16, 3)
	src := NewFlowUDPSource(nil)
	before := in.flow.Stats()
	src.ingest(pkt, in)
	after := in.flow.Stats()

	queueDropDelta := after.Dropped - before.Dropped
	st := src.Stats()
	if st.Records != 8 {
		t.Fatalf("source records = %d, want 8", st.Records)
	}
	if queueDropDelta != 5 {
		t.Fatalf("queue drop delta = %d, want 5", queueDropDelta)
	}
	if st.Dropped != queueDropDelta {
		t.Fatalf("source dropped %d != queue drop delta %d", st.Dropped, queueDropDelta)
	}
	if after.Offered()-before.Offered() != 8 {
		t.Fatalf("queue offered delta = %d, want 8", after.Offered()-before.Offered())
	}
}

// With an adaptive sampler on the intake queue the agreement must hold too:
// sampled records are deliberate queue-side shed, counted in Sampled — the
// source must keep counting only accidental overflow, and the two Dropped
// views must still match exactly.
func TestFlowUDPSourceDropAccountingWithSampler(t *testing.T) {
	recs := make([]netflow.FlowRecord, 8)
	for i := range recs {
		recs[i] = v9Flow(i)
	}
	pkt := encodeDatagram(t, recs)

	in := newTestIngest(16, 4)
	// Degenerate watermarks: shed half of everything offered while the
	// buffer is non-empty.
	in.flow.SetSampler(queue.SamplerConfig{LowWater: 0, HighWater: 0, MaxShed: 0.5})
	in.flow.OfferBatch([]netflow.FlowRecord{v9Flow(99)}) // non-empty so the sampler engages

	src := NewFlowUDPSource(nil)
	before := in.flow.Stats()
	src.ingest(pkt, in)
	after := in.flow.Stats()

	st := src.Stats()
	if sampled := after.Sampled - before.Sampled; sampled == 0 {
		t.Fatal("sampler shed nothing; test is vacuous")
	}
	if st.Dropped != after.Dropped-before.Dropped {
		t.Fatalf("source dropped %d != queue drop delta %d (sampled shed leaked into a drop counter)",
			st.Dropped, after.Dropped-before.Dropped)
	}
	if got := after.Offered() - before.Offered(); got != 8 {
		t.Fatalf("queue offered delta = %d, want 8 (invariant must cover sampled records)", got)
	}
}
