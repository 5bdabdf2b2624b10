// Chaos end-to-end tests: the pipeline under load while failpoints kill
// the sink, panic a correlation lane, and starve the disk mid-checkpoint.
// The process must survive every injected fault, the queue invariant
// Offered == Enqueued + Dropped + Sampled must hold against the test's own
// offer counts, and the attributed totals must reconcile exactly with the
// retry wrapper's spill/drop accounting — chaos may delay records, never
// lose them silently.
package repro

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stream"
	"repro/internal/workload"
)

// chaosConfig sizes a pipeline small enough that injected stalls back
// pressure into the queues, with the adaptive sampler armed so overload
// degrades through the accounted channels.
func chaosConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Lanes = 2
	cfg.FillQueueCap = 512
	cfg.LookQueueCap = 512
	cfg.SampleLowWater = 0.5
	cfg.SampleHighWater = 0.9
	return cfg
}

// faultHits returns the named failpoint's lifetime fire count.
func faultHits(t *testing.T, name string) uint64 {
	t.Helper()
	for _, st := range fault.List() {
		if st.Name == name {
			return st.Hits
		}
	}
	t.Fatalf("failpoint %s not registered", name)
	return 0
}

// TestChaosPipelineE2E runs the PR-gating chaos scenario:
//
//   - core.sink.write armed with a bounded error budget kills the sink for
//     the first few batches — the RetrySink must spill them, replay them in
//     order once the outage ends, and deliver every record exactly once;
//   - core.look.record armed with a panic budget poisons individual flow
//     records — each drops its own output slot, counted in Poisoned, while
//     the lane worker survives;
//   - snapshot.write/sync/rename faults starve the disk mid-checkpoint —
//     every failed checkpoint must leave the previous good generation
//     byte-identical on disk.
//
// Afterwards the stage queues, the pipeline's Written counter, the retry
// wrapper's ledger, and the inner sink's totals must all agree.
func TestChaosPipelineE2E(t *testing.T) {
	defer fault.DisableAll()
	const lookPanics = 5
	if err := fault.Enable("core.look.record", "5*panic(chaos lane)"); err != nil {
		t.Fatal(err)
	}
	const sinkOutage = 4
	if err := fault.Enable("core.sink.write", "4*error(chaos outage)"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	spillPath := filepath.Join(dir, "spill.jsonl")
	inner := core.NewCountingSink()
	rs, err := core.NewRetrySink(inner, core.RetryConfig{
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		SpillPath:  spillPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := chaosConfig()
	c := core.New(cfg, core.WithSink(rs))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	// Load while the faults are armed: enough flow batches that the write
	// stage sees the whole outage arc (fail → retry → spill ×3 → replay).
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 42)
	ts := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	var offeredDNS, offeredFlows, acceptedDNS, acceptedFlows uint64
	for b := 0; b < 50; b++ {
		ts = ts.Add(100 * time.Millisecond)
		dns := g.DNSBatch(ts, 100)
		acceptedDNS += uint64(c.OfferDNSBatch(dns))
		offeredDNS += uint64(len(dns))
		flows := g.FlowBatch(ts, 200)
		acceptedFlows += uint64(c.OfferFlowBatch(flows))
		offeredFlows += uint64(len(flows))
		time.Sleep(time.Millisecond) // let workers interleave with the faults
	}

	// Disk starvation mid-run: a good checkpoint, then three fault-driven
	// failures (torn write, failed fsync, failed rename), each of which must
	// leave the good generation untouched, then recovery.
	snapPath := filepath.Join(dir, "store.snapshot")
	if err := c.Checkpoint(snapPath); err != nil {
		t.Fatalf("good checkpoint: %v", err)
	}
	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []struct{ name, spec string }{
		{"snapshot.write", "1*shortwrite(64)"},
		{"snapshot.sync", "1*error(disk full)"},
		{"snapshot.rename", "1*error(disk full)"},
	} {
		if err := fault.Enable(fp.name, fp.spec); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(snapPath); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: Checkpoint err = %v, want injected", fp.name, err)
		}
		after, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatalf("%s: good generation gone: %v", fp.name, err)
		}
		if string(after) != string(good) {
			t.Fatalf("%s: failed checkpoint corrupted the previous generation (%d -> %d bytes)",
				fp.name, len(good), len(after))
		}
	}
	if err := c.Checkpoint(snapPath); err != nil {
		t.Fatalf("checkpoint after disk recovery: %v", err)
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("pipeline died under chaos: %v", err)
	}

	// Queue invariant against the test's own offer counts.
	st := c.Stats()
	if got := st.FillQueue.Enqueued + st.FillQueue.Dropped + st.FillQueue.Sampled; got != offeredDNS {
		t.Fatalf("fill queue unaccounted loss: %d accounted, %d offered", got, offeredDNS)
	}
	if got := st.LookQueue.Enqueued + st.LookQueue.Dropped + st.LookQueue.Sampled; got != offeredFlows {
		t.Fatalf("look queue unaccounted loss: %d accounted, %d offered", got, offeredFlows)
	}
	if offeredFlows-acceptedFlows != st.LookQueue.Dropped {
		t.Fatalf("producer-side flow drops %d != look Dropped %d", offeredFlows-acceptedFlows, st.LookQueue.Dropped)
	}
	if offeredDNS-acceptedDNS != st.FillQueue.Dropped {
		t.Fatalf("producer-side dns drops %d != fill Dropped %d", offeredDNS-acceptedDNS, st.FillQueue.Dropped)
	}

	// Panic containment: exactly the armed budget of records poisoned, each
	// missing from the sink but present in the supervision counters.
	if st.Poisoned != lookPanics {
		t.Fatalf("Poisoned = %d, want %d", st.Poisoned, lookPanics)
	}
	if st.Panics < lookPanics {
		t.Fatalf("Panics = %d, want >= %d", st.Panics, lookPanics)
	}
	var lookSup *core.SupervisedStatus
	for i := range st.Supervised {
		if st.Supervised[i].Name == "look" {
			lookSup = &st.Supervised[i]
		}
	}
	if lookSup == nil || lookSup.Panics != lookPanics {
		t.Fatalf("look supervision = %+v, want %d panics", lookSup, lookPanics)
	}
	if got := faultHits(t, "core.look.record"); got != lookPanics {
		t.Fatalf("core.look.record hits = %d, want %d", got, lookPanics)
	}
	if st.Written != st.LookQueue.Dequeued-st.Poisoned {
		t.Fatalf("written %d != look dequeued %d - poisoned %d",
			st.Written, st.LookQueue.Dequeued, st.Poisoned)
	}

	// Sink-outage reconciliation: every record handed to the retry wrapper
	// is delivered, still queued, or counted dropped — and the outage
	// actually exercised the spill/replay machinery.
	rstats := rs.Stats()
	if st.Written != rstats.Delivered+uint64(rstats.SpillDepth)+rstats.Dropped {
		t.Fatalf("retry ledger does not reconcile: written %d, delivered %d + depth %d + dropped %d",
			st.Written, rstats.Delivered, rstats.SpillDepth, rstats.Dropped)
	}
	if rstats.Spilled == 0 || rstats.Replayed == 0 || rstats.Retries == 0 {
		t.Fatalf("sink outage left no trace: %+v", rstats)
	}
	if rstats.Dropped != 0 || rstats.DroppedBatches != 0 {
		t.Fatalf("bounded outage dropped records: %+v", rstats)
	}
	if rstats.SpillDepth != 0 {
		t.Fatalf("backlog not fully replayed after outage: depth %d", rstats.SpillDepth)
	}
	if got := faultHits(t, "core.sink.write"); got != sinkOutage {
		t.Fatalf("core.sink.write hits = %d, want %d", got, sinkOutage)
	}

	// The inner sink saw exactly the delivered records, once each.
	var total uint64
	for _, n := range inner.Flows() {
		total += n
	}
	if total != rstats.Delivered {
		t.Fatalf("inner sink saw %d records, wrapper delivered %d", total, rstats.Delivered)
	}
	// Run closed the sink chain on drain; a fully replayed outage leaves an
	// empty spill file behind.
	if fi, err := os.Stat(spillPath); err == nil && fi.Size() != 0 {
		t.Fatalf("spill file not drained: %d bytes", fi.Size())
	}
	t.Logf("chaos: offered %d+%d, written %d, spilled %d, replayed %d, poisoned %d",
		offeredDNS, offeredFlows, st.Written, rstats.Spilled, rstats.Replayed, st.Poisoned)
}

// TestChaosSoak is the nightly kill-a-sink soak: sustained generator
// traffic over a real loopback socket while a chaos goroutine repeatedly
// arms a sink outage and a lane-panic budget. After minutes of flapping
// the accounting must still balance to the record. Runs only when
// FLOWDNS_SOAK is set to a duration; PR CI skips it.
func TestChaosSoak(t *testing.T) {
	soak := os.Getenv("FLOWDNS_SOAK")
	if soak == "" {
		t.Skip("set FLOWDNS_SOAK=60s to run the chaos soak")
	}
	dur, err := time.ParseDuration(soak)
	if err != nil {
		t.Fatalf("bad FLOWDNS_SOAK %q: %v", soak, err)
	}
	defer fault.DisableAll()

	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inner := core.NewCountingSink()
	rs, err := core.NewRetrySink(inner, core.RetryConfig{
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		SpillPath:  filepath.Join(t.TempDir(), "spill.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewFlowUDPSource(nfConn)
	c := core.New(chaosConfig(), core.WithSink(rs), core.WithSources(src))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	// The chaos clock: every quarter second the sink dies for a bounded
	// burst of writes and a handful of flow records turn poisonous.
	chaosDone := make(chan struct{})
	chaosStop := make(chan struct{})
	go func() {
		defer close(chaosDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-chaosStop:
				return
			case <-tick.C:
				if err := fault.Enable("core.sink.write", "8*error(soak outage)"); err != nil {
					t.Error(err)
					return
				}
				if err := fault.Enable("core.look.record", "3*panic(soak poison)"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	udp, err := net.Dial("udp", nfConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	nfSink := stream.NewFlowUDPSink(udp, 7, 20)
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 7)
	ts := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	stopAt := time.Now().Add(dur)
	var offeredDNS uint64
	for time.Now().Before(stopAt) {
		ts = ts.Add(50 * time.Millisecond)
		dns := g.DNSBatch(ts, 200)
		c.OfferDNSBatch(dns)
		offeredDNS += uint64(len(dns))
		for _, fr := range g.FlowBatch(ts, 400) {
			if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
				continue
			}
			if err := nfSink.Send(fr); err != nil {
				t.Fatal(err)
			}
		}
		if err := nfSink.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the chaos before the drain so the final replay runs against a
	// healthy sink — the nightly question is whether the books balance
	// after flapping, not whether an eternally dead endpoint loses data.
	close(chaosStop)
	<-chaosDone
	fault.DisableAll()
	udp.Close()
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("pipeline died during soak: %v", err)
	}
	srcStats := src.Stats()

	st := c.Stats()
	rstats := rs.Stats()
	t.Logf("chaos soak: %v, source %+v, written %d, retry %+v, poisoned %d panics %d",
		dur, srcStats, st.Written, rstats, st.Poisoned, st.Panics)
	if rstats.Spilled == 0 || st.Poisoned == 0 {
		t.Fatalf("soak chaos never bit: retry %+v poisoned %d", rstats, st.Poisoned)
	}
	if got := st.FillQueue.Enqueued + st.FillQueue.Dropped + st.FillQueue.Sampled; got != offeredDNS {
		t.Fatalf("fill queue unaccounted loss: %d accounted, %d offered", got, offeredDNS)
	}
	if st.LookQueue.Offered() != srcStats.Records {
		t.Fatalf("look queues account %d records, source offered %d", st.LookQueue.Offered(), srcStats.Records)
	}
	if srcStats.Dropped != st.LookQueue.Dropped {
		t.Fatalf("source dropped %d != look queue Dropped %d", srcStats.Dropped, st.LookQueue.Dropped)
	}
	if st.Written != st.LookQueue.Dequeued-st.Poisoned {
		t.Fatalf("written %d != look dequeued %d - poisoned %d",
			st.Written, st.LookQueue.Dequeued, st.Poisoned)
	}
	if st.Written != rstats.Delivered+uint64(rstats.SpillDepth)+rstats.Dropped {
		t.Fatalf("retry ledger does not reconcile: written %d, delivered %d + depth %d + dropped %d",
			st.Written, rstats.Delivered, rstats.SpillDepth, rstats.Dropped)
	}
	var total uint64
	for _, n := range inner.Flows() {
		total += n
	}
	if total != rstats.Delivered {
		t.Fatalf("inner sink saw %d records, wrapper delivered %d", total, rstats.Delivered)
	}
}
