package core

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/fault"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// superviseConfig is a small deterministic pipeline: one lane so batches
// are not partitioned, and a fast restart backoff so supervised restarts
// do not slow tests down.
func superviseConfig() Config {
	return Config{
		Lanes:             1,
		RestartBackoffMin: time.Millisecond,
		RestartBackoffMax: 2 * time.Millisecond,
	}
}

func superviseDNS(i int) stream.DNSRecord {
	return stream.DNSRecord{
		Timestamp: time.Now(),
		Query:     "svc.example.",
		RType:     dnswire.TypeA,
		TTL:       300,
		Addr:      netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
	}
}

func superviseFlow(i int) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: time.Now(),
		SrcIP:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		DstIP:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		Packets:   1, Bytes: 100,
	}
}

func runPipeline(t *testing.T, c *Correlator, feed func()) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	feed()
	cancel()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

func supStatus(st Stats, name string) SupervisedStatus {
	for _, s := range st.Supervised {
		if s.Name == name {
			return s
		}
	}
	return SupervisedStatus{}
}

// TestFillPoisonContainment proves a panicking DNS record costs exactly
// itself: the batch retries record-at-a-time, healthy records are filled
// and counted once, and the process survives with exact counters.
func TestFillPoisonContainment(t *testing.T) {
	defer fault.DisableAll()
	const n = 10
	c := New(superviseConfig())
	if err := fault.Enable("core.fill.record", "2*panic(poisoned dns record)"); err != nil {
		t.Fatal(err)
	}
	err := runPipeline(t, c, func() {
		recs := make([]stream.DNSRecord, 0, n)
		for i := 0; i < n; i++ {
			recs = append(recs, superviseDNS(i))
		}
		if got := c.OfferDNSBatch(recs); got != n {
			t.Errorf("offered %d of %d", got, n)
		}
		// Wait for the fill queue to drain so the panic happens before the
		// drain path.
		deadline := time.After(5 * time.Second)
		for {
			if f, _ := c.QueueDepths(); f == 0 {
				break
			}
			select {
			case <-deadline:
				t.Error("fill queue never drained")
				return
			case <-time.After(time.Millisecond):
			}
		}
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	st := c.Stats()
	// Budget 2: the whole-batch attempt panics once, the per-record retry
	// panics once more on the same (first) record, which is dropped.
	if st.Poisoned != 1 {
		t.Fatalf("Poisoned = %d, want 1", st.Poisoned)
	}
	if st.DNSRecords != n-1 {
		t.Fatalf("DNSRecords = %d, want %d (no double count on retry)", st.DNSRecords, n-1)
	}
	fill := supStatus(st, "fill")
	if fill.Panics != 2 || st.Panics != 2 {
		t.Fatalf("fill panics = %d (total %d), want 2", fill.Panics, st.Panics)
	}
	if ip, _ := c.StoreSizes(); ip != n-1 {
		t.Fatalf("store entries = %d, want %d", ip, n-1)
	}
}

// TestLookPoisonContainment proves a panicking flow drops only its own
// output slot: the rest of the batch reaches the sink.
func TestLookPoisonContainment(t *testing.T) {
	defer fault.DisableAll()
	const n = 8
	var written atomic.Uint64
	sink := SinkFunc(func(cf CorrelatedFlow) { written.Add(1) })
	c := New(superviseConfig(), WithSink(sink))
	if err := fault.Enable("core.look.record", "1*panic(poisoned flow)"); err != nil {
		t.Fatal(err)
	}
	err := runPipeline(t, c, func() {
		flows := make([]netflow.FlowRecord, 0, n)
		for i := 0; i < n; i++ {
			flows = append(flows, superviseFlow(i))
		}
		if got := c.OfferFlowBatch(flows); got != n {
			t.Errorf("offered %d of %d", got, n)
		}
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	st := c.Stats()
	if st.Poisoned != 1 {
		t.Fatalf("Poisoned = %d, want 1", st.Poisoned)
	}
	// The poisoned flow fires before the tally, so Flows excludes it and
	// the sink received everything but the one slot.
	if st.Flows != n-1 || written.Load() != n-1 || st.Written != n-1 {
		t.Fatalf("flows/written = %d/%d/%d, want %d", st.Flows, st.Written, written.Load(), n-1)
	}
	if look := supStatus(st, "look"); look.Panics != 1 {
		t.Fatalf("look panics = %d, want 1", look.Panics)
	}
}

// panickyService panics on its first serves, then blocks until ctx done.
type panickyService struct {
	panicsLeft atomic.Int64
	serves     atomic.Int64
}

func (p *panickyService) Name() string { return "flaky" }
func (p *panickyService) Serve(ctx context.Context) error {
	p.serves.Add(1)
	if p.panicsLeft.Add(-1) >= 0 {
		panic("service crash")
	}
	<-ctx.Done()
	return nil
}

// TestServiceSupervisedRestart proves a panicking service is restarted
// with backoff and counted, and its panic never reaches the process.
func TestServiceSupervisedRestart(t *testing.T) {
	svc := &panickyService{}
	svc.panicsLeft.Store(2)
	c := New(superviseConfig(), WithServices(svc))
	err := runPipeline(t, c, func() {
		deadline := time.After(5 * time.Second)
		for svc.serves.Load() < 3 {
			select {
			case <-deadline:
				t.Error("service never recovered")
				return
			case <-time.After(time.Millisecond):
			}
		}
	})
	// The supervised loop reports the last abnormal error even though the
	// service later recovered — a flapping service must not be silent.
	if err == nil || !strings.Contains(err.Error(), "contained panic") {
		t.Fatalf("Run = %v, want joined contained-panic error", err)
	}
	st := c.Stats()
	s := supStatus(st, "service:flaky")
	if s.Panics != 2 || s.Restarts != 2 {
		t.Fatalf("service panics/restarts = %d/%d, want 2/2", s.Panics, s.Restarts)
	}
	if st.Restarts != 2 {
		t.Fatalf("total restarts = %d, want 2", st.Restarts)
	}
}

// TestSinkPanicContained proves a panicking sink ends the run like a sink
// error — graceful drain, error joined — instead of crashing the process.
func TestSinkPanicContained(t *testing.T) {
	sink := SinkFunc(func(cf CorrelatedFlow) { panic("sink exploded") })
	c := New(superviseConfig(), WithSink(sink))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	c.OfferFlowBatch([]netflow.FlowRecord{superviseFlow(1)})
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after sink panic")
	}
	if err == nil || !strings.Contains(err.Error(), "contained panic") {
		t.Fatalf("Run = %v, want contained-panic sink error", err)
	}
	if w := supStatus(c.Stats(), "write"); w.Panics != 1 {
		t.Fatalf("write panics = %d, want 1", w.Panics)
	}
}

// TestInjectedSinkErrorIsErrInjected sanity-checks failpoint error
// provenance end to end through errors.Join.
func TestInjectedSinkErrorIsErrInjected(t *testing.T) {
	defer fault.DisableAll()
	p := fault.New("core.test.provenance")
	if err := fault.Enable(p.Name(), "1*error(x)"); err != nil {
		t.Fatal(err)
	}
	err := errors.Join(errors.New("other"), p.Inject())
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatal("injected error lost through Join")
	}
}
