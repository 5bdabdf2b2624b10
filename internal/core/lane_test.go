package core

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
	"repro/internal/workload"
)

// laneResult is what the differential tests compare per flow.
type laneResult struct {
	Name     string
	ChainLen int
	Tier     Tier
}

func resultOf(cf CorrelatedFlow) laneResult { return laneResult{cf.Name, cf.ChainLen, cf.Tier} }

// laneTrace is a seeded workload trace: four query rounds five simulated
// minutes apart (no clear-up falls inside it) and the flows following
// them. Each flow's Packets field is overwritten with its index + 1, an
// identity correlation never reads, so sink output maps back to the trace.
func laneTrace(queries, flows int) ([]stream.DNSRecord, []netflow.FlowRecord) {
	wc := workload.DefaultConfig()
	wc.Seed, wc.NumServices = 3, 500
	g := workload.NewGenerator(workload.NewUniverse(wc), 7)
	var dns []stream.DNSRecord
	var frs []netflow.FlowRecord
	for s := 0; s < 4; s++ {
		ts := t0.Add(time.Duration(s) * 5 * time.Minute)
		dns = append(dns, g.DNSBatch(ts, queries/4)...)
		frs = append(frs, g.FlowBatch(ts, flows/4)...)
	}
	for i := range frs {
		frs[i].Packets = uint64(i + 1)
	}
	return dns, frs
}

// laneCell is one lanes × key configuration of the differential tests.
// CNAMEChainLimit is 1: §3.3's memo write makes a repeated multi-hop
// walk's hop count (and, for a truncated chain, its name) depend on which
// flow walked first — an order no lane layout fixes — while a one-hop walk
// never memoizes, so every result is a pure function of the filled state.
func laneCell(lanes int, key LookupKey) Config {
	cfg := DefaultConfig()
	cfg.Lanes, cfg.Key, cfg.CNAMEChainLimit = lanes, key, 1
	return cfg
}

// runLanePipeline runs c with a sink recording every flow's result by its
// Packets identity, calls feed while the lane workers run, then cancels
// and waits for the lossless drain.
func runLanePipeline(t *testing.T, cfg Config, feed func(c *Correlator)) map[uint64]laneResult {
	t.Helper()
	var mu sync.Mutex
	got := make(map[uint64]laneResult)
	c := New(cfg, WithSink(SinkFunc(func(cf CorrelatedFlow) {
		mu.Lock()
		got[cf.Flow.Packets] = resultOf(cf)
		mu.Unlock()
	})))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	feed(c)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not drain")
	}
	if st := c.Stats(); st.FillQueue.Lost()+st.LookQueue.Lost() != 0 {
		t.Fatalf("records lost: fill %+v look %+v", st.FillQueue, st.LookQueue)
	}
	return got
}

// compareLaneResults requires every flow's live result to equal the
// synchronous one, and at least one flow to have correlated.
func compareLaneResults(t *testing.T, frs []netflow.FlowRecord, want, got map[uint64]laneResult) {
	t.Helper()
	hits := 0
	for _, fr := range frs {
		id := fr.Packets
		g, ok := got[id]
		if !ok {
			t.Fatalf("flow %d never reached the sink", id)
		}
		if g != want[id] {
			t.Fatalf("flow %d (%v→%v): pipeline %+v, synchronous %+v", id, fr.SrcIP, fr.DstIP, g, want[id])
		}
		if g.Name != "" {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no flow correlated: the comparison proves nothing")
	}
}

// TestLaneDifferential replays a seeded trace through Run for every
// lanes × key cell: offer all DNS, wait until the fill ledger has it all,
// then offer the flows. Every flow's (Name, ChainLen, Tier) must equal what
// IngestDNS/CorrelateFlow give on a fresh correlator.
func TestLaneDifferential(t *testing.T) {
	dns, frs := laneTrace(600, 4000)
	for _, lanes := range []int{1, 2, 10} {
		for _, key := range []LookupKey{LookupSource, LookupDestination, LookupBoth} {
			t.Run(fmt.Sprintf("lanes=%d/key=%v", lanes, key), func(t *testing.T) {
				cfg := laneCell(lanes, key)
				ref := New(cfg)
				for _, r := range dns {
					ref.IngestDNS(r)
				}
				want := make(map[uint64]laneResult, len(frs))
				for _, fr := range frs {
					want[fr.Packets] = resultOf(ref.CorrelateFlow(fr))
				}
				got := runLanePipeline(t, cfg, func(c *Correlator) {
					if n := c.OfferDNSBatch(dns); n != len(dns) {
						t.Fatalf("offered %d of %d DNS records", n, len(dns))
					}
					deadline := time.Now().Add(10 * time.Second)
					for st := c.Stats(); st.DNSRecords+st.DNSInvalid < uint64(len(dns)); st = c.Stats() {
						if time.Now().After(deadline) {
							t.Fatalf("fill ledger stuck at %d of %d", st.DNSRecords+st.DNSInvalid, len(dns))
						}
						time.Sleep(100 * time.Microsecond)
					}
					if n := c.OfferFlowBatch(frs); n != len(frs) {
						t.Fatalf("offered %d of %d flows", n, len(frs))
					}
				})
				compareLaneResults(t, frs, want, got)
			})
		}
	}
}

// TestLaneOrderingWithoutWait pins the same-lane ordering: each address's
// A/AAAA record is offered right before the first flow resolved by it, with
// no wait in between, and every flow must still see it. A lane worker takes
// a flow batch, then a DNS batch, and fills before it correlates, so a
// record offered before a flow on the same lane is visible to that flow
// (with at most one record per flow, the lane's DNS backlog never exceeds
// the flows taken alongside it). Only A/AAAA records take part, each
// address once: CNAMEs and LookupBoth's destination fallback are
// cross-lane, and no cross-lane order is promised.
func TestLaneOrderingWithoutWait(t *testing.T) {
	dns, frs := laneTrace(600, 4000)
	byAddr := make(map[netip.Addr]stream.DNSRecord)
	for _, r := range dns {
		if _, seen := byAddr[r.Addr]; !seen && (r.RType == dnswire.TypeA || r.RType == dnswire.TypeAAAA) {
			byAddr[r.Addr] = r
		}
	}
	for _, lanes := range []int{1, 2, 10} {
		for _, key := range []LookupKey{LookupSource, LookupDestination} {
			t.Run(fmt.Sprintf("lanes=%d/key=%v", lanes, key), func(t *testing.T) {
				cfg := laneCell(lanes, key)
				// The interleaved sequence: a record (if its address has one
				// not yet offered), then its flow.
				type step struct {
					rec *stream.DNSRecord
					fr  netflow.FlowRecord
				}
				offered := make(map[netip.Addr]bool)
				steps := make([]step, 0, len(frs))
				for _, fr := range frs {
					addr := fr.SrcIP
					if key == LookupDestination {
						addr = fr.DstIP
					}
					s := step{fr: fr}
					if r, ok := byAddr[addr]; ok && !offered[addr] {
						offered[addr] = true
						s.rec = &r
					}
					steps = append(steps, s)
				}
				ref := New(cfg)
				want := make(map[uint64]laneResult, len(frs))
				for _, s := range steps {
					if s.rec != nil {
						ref.IngestDNS(*s.rec)
					}
					want[s.fr.Packets] = resultOf(ref.CorrelateFlow(s.fr))
				}
				got := runLanePipeline(t, cfg, func(c *Correlator) {
					for _, s := range steps {
						if s.rec != nil && !offerDNS(c, *s.rec) {
							t.Fatal("DNS offer dropped")
						}
						if !offerFlow(c, s.fr) {
							t.Fatal("flow offer dropped")
						}
					}
				})
				compareLaneResults(t, frs, want, got)
			})
		}
	}
}

// countWorkers counts the live goroutines running a lane worker, and the
// other goroutines this package started: a Write worker pool, or any
// worker besides the lanes, would count there.
func countWorkers() (lanes, others int) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		switch {
		case strings.Contains(g, ").runLane("):
			lanes++
		case strings.Contains(g, "created by repro/internal/core.") &&
			!strings.Contains(g, "created by repro/internal/core.Test"):
			others++
		}
	}
	return lanes, others
}

// waitWorkers waits until exactly lanes lane workers and no other worker
// of this package are running. Goroutines of an earlier run may still be
// unwinding past their WaitGroup, so it waits for the exact count rather
// than sampling it once.
func waitWorkers(t *testing.T, lanes int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, o := countWorkers()
		if l == lanes && o == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d lane workers and %d other workers running, want %d and 0", l, o, lanes)
		}
		runtime.Gosched()
	}
}

// TestLaneWorkersOnePerLane pins the concurrency a started correlator runs:
// exactly one worker per lane — no separate FillUp, LookUp or Write
// workers — all gone once Run returns.
func TestLaneWorkersOnePerLane(t *testing.T) {
	for _, lanes := range []int{1, 3, 10} {
		cfg := DefaultConfig()
		cfg.Lanes = lanes
		c := New(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- c.Run(ctx) }()
		waitWorkers(t, c.Lanes())
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		waitWorkers(t, 0)
	}
}

// stallSink blocks every WriteBatch until release is closed, announcing on
// entered the first time a lane is stuck in it.
type stallSink struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *stallSink) WriteBatch(context.Context, []CorrelatedFlow) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return nil
}

func (s *stallSink) Flush() error { return nil }
func (s *stallSink) Close() error { return nil }

// TestTCPDNSBackpressureLosesNothing stalls the only lane inside the sink,
// then streams a TCP DNS burst far larger than the lane's DNS ring: the
// source must wait for space instead of dropping, and once the sink
// resumes every record must be filled.
func TestTCPDNSBackpressureLosesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 1
	cfg.FillQueueCap = 16
	sink := &stallSink{entered: make(chan struct{}), release: make(chan struct{})}
	c := New(cfg, WithSink(sink))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	offerFlow(c, flow(t0, "198.51.100.1", 1))
	<-sink.entered

	client, server := net.Pipe()
	src := stream.NewDNSTCPSource(server)
	srcDone := make(chan error, 1)
	go func() { srcDone <- src.Run(ctx, c) }()
	const burst = 200
	sendDone := make(chan error, 1)
	go func() {
		w := stream.NewDNSTCPSink(client)
		for i := range burst {
			m := &dnswire.Message{
				Header:    dnswire.Header{ID: uint16(i), Response: true},
				Questions: []dnswire.Question{{Name: "svc.example", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
				Answers: []dnswire.Record{{Name: "svc.example", Type: dnswire.TypeA, Class: dnswire.ClassIN,
					TTL: 300, Addr: netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})}},
			}
			if err := w.Send(m); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- client.Close()
	}()

	// The ring fills while the lane is stuck; nothing may drop meanwhile.
	deadline := time.Now().Add(10 * time.Second)
	for fill, _ := c.QueueDepths(); fill < cfg.FillQueueCap; fill, _ = c.QueueDepths() {
		if time.Now().After(deadline) {
			t.Fatalf("DNS ring never filled: depth %d", fill)
		}
		runtime.Gosched()
	}
	if st := c.Stats(); st.FillQueue.Lost() != 0 || src.Stats().Dropped != 0 {
		t.Fatalf("records dropped while the lane stalled: ring %+v, source %+v", st.FillQueue, src.Stats())
	}

	close(sink.release)
	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
	if err := <-srcDone; err != nil {
		t.Fatal(err)
	}
	for c.Stats().DNSRecords < burst {
		if time.Now().After(deadline) {
			t.Fatalf("filled %d of %d records", c.Stats().DNSRecords, burst)
		}
		runtime.Gosched()
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	st, ss := c.Stats(), src.Stats()
	if st.FillQueue.Lost() != 0 || ss.Dropped != 0 || ss.Records != burst || st.DNSRecords != burst {
		t.Fatalf("ring %+v, source %+v, filled %d: want %d records and no loss", st.FillQueue, ss, st.DNSRecords, burst)
	}
}

// flushSink reports on flushed how many records it had been written when
// each Flush came.
type flushSink struct {
	written atomic.Int64
	flushed chan int64
}

func (s *flushSink) WriteBatch(_ context.Context, b []CorrelatedFlow) error {
	s.written.Add(int64(len(b)))
	return nil
}

func (s *flushSink) Flush() error {
	select {
	case s.flushed <- s.written.Load():
	default:
	}
	return nil
}

func (s *flushSink) Close() error { return nil }

// TestLaneIdleFlushesSingleFlow offers one flow into an idle pipeline: the
// lane that writes it goes idle next and, being the last busy lane, must
// flush the sink without waiting for more traffic or the drain.
func TestLaneIdleFlushesSingleFlow(t *testing.T) {
	sink := &flushSink{flushed: make(chan int64, 1)}
	c := New(DefaultConfig(), WithSink(sink))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	if !offerFlow(c, flow(t0, "198.51.100.1", 1)) {
		t.Fatal("flow dropped")
	}
	select {
	case n := <-sink.flushed:
		if n != 1 {
			t.Fatalf("flushed after %d written records, want 1", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the written flow was never flushed")
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}
