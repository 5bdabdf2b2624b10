package stream

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netflow"
	"repro/internal/queue"
)

// A zero first-record timestamp (replayed captures, synthetic load) must
// not stamp the export header with the Unix epoch: the sink falls back to
// the wall clock, so collector-side age math stays sane.
func TestFlowUDPSinkFlushZeroTimestamp(t *testing.T) {
	conn := &captureConn{}
	sink := NewFlowUDPSink(conn, 7, 10)
	injected := testTime().Add(42 * time.Minute)
	sink.now = func() time.Time { return injected }

	rec := v9Flow(0)
	rec.Timestamp = time.Time{}
	if err := sink.Send(rec); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := netflow.DecodeV9(conn.packets[0], netflow.NewTemplateCache())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Header.UnixSecs; got != uint32(injected.Unix()) {
		t.Fatalf("header UnixSecs = %d, want wall clock %d (zero-timestamp batch must not emit a 1970 header)",
			got, injected.Unix())
	}

	// A batch whose first record does carry a timestamp keeps using it.
	if err := sink.Send(v9Flow(1)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err = netflow.DecodeV9(conn.packets[1], netflow.NewTemplateCache())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Header.UnixSecs; got != uint32(v9Flow(1).Timestamp.Unix()) {
		t.Fatalf("header UnixSecs = %d, want record timestamp %d", got, v9Flow(1).Timestamp.Unix())
	}
}

// scriptedPacketConn serves a fixed list of datagrams, then blocks until
// closed. It deliberately does not implement syscall.Conn, so a
// FlowUDPSource wrapping it must take the single-read fallback path even on
// platforms with batch-read support.
type scriptedPacketConn struct {
	pkts [][]byte
	i    int

	mu     sync.Mutex
	closed chan struct{}
}

func newScriptedPacketConn(pkts [][]byte) *scriptedPacketConn {
	return &scriptedPacketConn{pkts: pkts, closed: make(chan struct{})}
}

func (c *scriptedPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if c.i < len(c.pkts) {
		n := copy(p, c.pkts[c.i])
		c.i++
		return n, nil, nil
	}
	<-c.closed
	return 0, nil, net.ErrClosed
}

func (c *scriptedPacketConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *scriptedPacketConn) WriteTo([]byte, net.Addr) (int, error) { return 0, net.ErrClosed }
func (c *scriptedPacketConn) LocalAddr() net.Addr                   { return nil }
func (c *scriptedPacketConn) SetDeadline(time.Time) error           { return nil }
func (c *scriptedPacketConn) SetReadDeadline(time.Time) error       { return nil }
func (c *scriptedPacketConn) SetWriteDeadline(time.Time) error      { return nil }

// mixedDatagrams builds the wire mix both mode tests feed: v9 (template +
// data), v5, garbage, and a runt — per expectation 16+30 records, 2 decode
// errors across 4+ frames.
func mixedDatagrams(t *testing.T) (pkts [][]byte, wantRecords, wantErrors int) {
	t.Helper()
	v9recs := make([]netflow.FlowRecord, 16)
	for i := range v9recs {
		v9recs[i] = v9Flow(i)
	}
	pkts = append(pkts, encodeDatagram(t, v9recs))
	pkts = append(pkts, v5Datagram(t, 30))
	pkts = append(pkts, []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}) // unknown version
	pkts = append(pkts, []byte{5})                                  // runt
	return pkts, 46, 2
}

// runUDPSource pushes pkts through a FlowUDPSource over a real loopback UDP
// socket in the requested mode and returns the source stats and the flow
// queue stats delta once every frame has been accounted.
func runUDPSource(t *testing.T, batchSize int, pkts [][]byte) (SourceStats, queue.Stats) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		uc.SetReadBuffer(4 << 20)
	}
	src := NewFlowUDPSource(pc)
	src.BatchSize = batchSize
	in := newTestIngest(16, 1<<16)
	before := in.flow.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, p := range pkts {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for src.Stats().Frames < uint64(len(pkts)) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: frames = %d, want %d", src.Stats().Frames, len(pkts))
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	after := in.flow.Stats()
	return src.Stats(), queue.Stats{
		Enqueued: after.Enqueued - before.Enqueued,
		Dropped:  after.Dropped - before.Dropped,
		Sampled:  after.Sampled - before.Sampled,
	}
}

// Batch and single-read modes must be observationally identical: same
// record counts, same frames/decode-error accounting, same drop accounting,
// and the Offered == Enqueued + Dropped + Sampled queue invariant in both.
// On platforms without batch support the "batch" leg exercises the runtime
// fallback instead — the assertions are identical by design.
func TestFlowUDPSourceBatchAndFallbackAgree(t *testing.T) {
	pkts, wantRecords, wantErrors := mixedDatagrams(t)
	modes := map[string]int{"batch": 8, "single": 1}
	stats := map[string]SourceStats{}
	for name, bs := range modes {
		t.Run(name, func(t *testing.T) {
			st, qd := runUDPSource(t, bs, pkts)
			if st.Records != uint64(wantRecords) {
				t.Fatalf("records = %d, want %d", st.Records, wantRecords)
			}
			if st.DecodeError != uint64(wantErrors) {
				t.Fatalf("decode errors = %d, want %d", st.DecodeError, wantErrors)
			}
			if st.Frames != uint64(len(pkts)) {
				t.Fatalf("frames = %d, want %d", st.Frames, len(pkts))
			}
			// Source-side drops must equal queue-side drops, and the queue
			// invariant must hold: every offered record is enqueued, dropped,
			// or sampled.
			if st.Dropped != qd.Dropped {
				t.Fatalf("source dropped %d != queue dropped %d", st.Dropped, qd.Dropped)
			}
			if off := qd.Offered(); off != st.Records {
				t.Fatalf("queue offered %d != source records %d", off, st.Records)
			}
			if qd.Enqueued+qd.Dropped+qd.Sampled != qd.Offered() {
				t.Fatalf("invariant violated: %d + %d + %d != %d",
					qd.Enqueued, qd.Dropped, qd.Sampled, qd.Offered())
			}
			stats[name] = st
		})
	}
	if t.Failed() {
		return
	}
	if stats["batch"] != stats["single"] {
		t.Fatalf("modes disagree: batch %+v, single %+v", stats["batch"], stats["single"])
	}
}

// A PacketConn without a raw file descriptor must be served by the fallback
// loop with the exact same counts — the path every test fake, tunnel, and
// non-Linux platform takes.
func TestFlowUDPSourceFallbackOnNonSyscallConn(t *testing.T) {
	pkts, wantRecords, wantErrors := mixedDatagrams(t)
	conn := newScriptedPacketConn(pkts)
	src := NewFlowUDPSource(conn)
	src.BatchSize = 8 // batching requested, but the conn cannot do it
	in := newTestIngest(16, 1<<16)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()

	deadline := time.Now().Add(5 * time.Second)
	for src.Stats().Frames < uint64(len(pkts)) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: frames = %d, want %d", src.Stats().Frames, len(pkts))
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := src.Stats()
	if st.Records != uint64(wantRecords) || st.DecodeError != uint64(wantErrors) || st.Frames != uint64(len(pkts)) {
		t.Fatalf("stats = %+v, want %d records / %d errors / %d frames", st, wantRecords, wantErrors, len(pkts))
	}
	qs := in.flow.Stats()
	if qs.Enqueued != uint64(wantRecords) || qs.Dropped != 0 {
		t.Fatalf("queue stats = %+v", qs)
	}
}

// Under a sampler the invariant must hold in batch mode too: shed records
// are accepted handoffs counted in Sampled, never phantom source drops.
func TestFlowUDPSourceBatchWithSamplerInvariant(t *testing.T) {
	pkts, wantRecords, _ := mixedDatagrams(t)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	src := NewFlowUDPSource(pc)
	src.BatchSize = 8
	in := newTestIngest(16, 64)
	in.flow.SetSampler(queue.SamplerConfig{LowWater: 0, HighWater: 0, MaxShed: 0.5})
	in.flow.OfferBatch([]netflow.FlowRecord{v9Flow(99)}) // non-empty so the sampler engages
	before := in.flow.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, p := range pkts {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for src.Stats().Frames < uint64(len(pkts)) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: frames = %d", src.Stats().Frames)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}

	st := src.Stats()
	after := in.flow.Stats()
	sampled := after.Sampled - before.Sampled
	if sampled == 0 {
		t.Fatal("sampler shed nothing; test is vacuous")
	}
	if st.Dropped != after.Dropped-before.Dropped {
		t.Fatalf("source dropped %d != queue drop delta %d (sampled shed leaked into a drop counter)",
			st.Dropped, after.Dropped-before.Dropped)
	}
	if off := after.Offered() - before.Offered(); off != st.Records || st.Records != uint64(wantRecords) {
		t.Fatalf("offered delta %d != records %d (want %d)", off, st.Records, wantRecords)
	}
}
