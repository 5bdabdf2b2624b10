// Overload-degradation end-to-end tests: an undersized pipeline flooded
// past its stage queues must lose records only through the accounted
// channels — accidental overflow (Dropped) and the adaptive sampler's
// deliberate shed (Sampled) — never silently. The queue invariant
// Offered == Enqueued + Dropped + Sampled is checked against offer counts
// kept by the test itself, not the queues' own arithmetic.
package repro

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/queue"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/workload"
)

// undersizedConfig is a pipeline whose stage buffers are far smaller than
// the flood the tests push through them, with the adaptive sampler enabled.
func undersizedConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Lanes = 2
	cfg.FillQueueCap = 64 // 32 per lane
	cfg.LookQueueCap = 64
	cfg.WriteQueueCap = 1024
	cfg.SampleLowWater = 0.25
	cfg.SampleHighWater = 0.75
	cfg.SampleMaxShed = 0.5
	return cfg
}

func overloadDNS(i int) stream.DNSRecord {
	return stream.DNSRecord{
		Timestamp: time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC),
		Query:     fmt.Sprintf("svc%03d.example", i%200),
		RType:     dnswire.TypeA,
		TTL:       60,
		Answer:    fmt.Sprintf("198.51.100.%d", i%250+1),
	}
}

func overloadFlow(i int) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC),
		SrcIP:     netip.AddrFrom4([4]byte{198, 51, 100, byte(i%250 + 1)}),
		DstIP:     netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}),
		SrcPort:   443, DstPort: 50000, Proto: netflow.ProtoTCP,
		Packets: 1, Bytes: 100,
	}
}

// TestOverloadSampledDegradationE2E floods the undersized pipeline and
// checks that deliberate degradation replaces silent loss:
//
//   - every stage queue satisfies Offered == Enqueued + Dropped + Sampled
//     against the test's own offer counts,
//   - the sampler actually shed (Sampled > 0) and that shed is visible in
//     LossRate/SampledRate,
//   - and the rollup totals equal the accepted-record count exactly — what
//     the pipeline accepted it delivered, once.
//
// The flood happens before Run starts, so the fill level seen by each
// offer — and therefore every shed and drop decision — is a deterministic
// function of the offer sequence alone.
func TestOverloadSampledDegradationE2E(t *testing.T) {
	cfg := undersizedConfig()
	var mu sync.Mutex
	var sealed []rollup.Window
	roll := rollup.New(time.Minute, 4)
	sink := rollup.NewSink(roll, rollup.WithOnSeal(func(ws []rollup.Window) {
		mu.Lock()
		sealed = append(sealed, ws...)
		mu.Unlock()
	}))
	c := core.New(cfg, core.WithSink(sink))

	// Deterministic flood: no consumers are running, so queue fill levels
	// rise monotonically and the sampler's fixed-point credit accounting
	// makes every shed decision reproducible.
	var offeredDNS, offeredFlows, acceptedDNS, acceptedFlows uint64
	for b := 0; b < 40; b++ {
		dns := make([]stream.DNSRecord, 16)
		flows := make([]netflow.FlowRecord, 16)
		for i := range dns {
			dns[i] = overloadDNS(b*16 + i)
			flows[i] = overloadFlow(b*16 + i)
		}
		acceptedDNS += uint64(c.OfferDNSBatch(dns))
		acceptedFlows += uint64(c.OfferFlowBatch(flows))
		offeredDNS += uint64(len(dns))
		offeredFlows += uint64(len(flows))
	}

	flood := c.Stats()
	for _, q := range []struct {
		name    string
		st      queue.Stats
		offered uint64
	}{
		{"fill", flood.FillQueue, offeredDNS},
		{"look", flood.LookQueue, offeredFlows},
	} {
		if got := q.st.Enqueued + q.st.Dropped + q.st.Sampled; got != q.offered {
			t.Fatalf("%s queue unaccounted loss: enqueued %d + dropped %d + sampled %d = %d, offered %d",
				q.name, q.st.Enqueued, q.st.Dropped, q.st.Sampled, got, q.offered)
		}
		if q.st.Sampled == 0 {
			t.Fatalf("%s queue: flood past the high watermark shed nothing", q.name)
		}
		if q.st.Dropped == 0 {
			t.Fatalf("%s queue: flood past capacity dropped nothing (undersized pipeline not undersized?)", q.name)
		}
	}
	// The producer's view agrees: offered − accepted counts only accidental
	// overflow, because sampled records report as accepted.
	if offeredFlows-acceptedFlows != flood.LookQueue.Dropped {
		t.Fatalf("producer-side flow drops %d != look queue Dropped %d",
			offeredFlows-acceptedFlows, flood.LookQueue.Dropped)
	}
	if offeredDNS-acceptedDNS != flood.FillQueue.Dropped {
		t.Fatalf("producer-side dns drops %d != fill queue Dropped %d",
			offeredDNS-acceptedDNS, flood.FillQueue.Dropped)
	}

	// Drain the accepted records through the real worker machinery. With no
	// sources attached, Run waits on ctx; cancelling immediately invokes the
	// graceful drain, which is lossless for everything the queues accepted.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Run(ctx); err != nil {
		t.Fatalf("Run = %v", err)
	}

	st := c.Stats()
	if st.FillQueue.Offered() != offeredDNS || st.LookQueue.Offered() != offeredFlows {
		t.Fatalf("offer counts moved during drain: fill %d/%d look %d/%d",
			st.FillQueue.Offered(), offeredDNS, st.LookQueue.Offered(), offeredFlows)
	}
	// Write-stage invariant: everything the look workers dequeued was
	// offered downstream, and the write queue accounts all of it.
	if st.WriteQueue.Offered() != st.LookQueue.Dequeued {
		t.Fatalf("write queue offered %d != look dequeued %d",
			st.WriteQueue.Offered(), st.LookQueue.Dequeued)
	}
	if st.FlowInvalid != 0 || st.DNSInvalid != 0 {
		t.Fatalf("flood records rejected as invalid: %+v", st)
	}
	if st.Written != st.WriteQueue.Dequeued {
		t.Fatalf("written %d != write queue dequeued %d", st.Written, st.WriteQueue.Dequeued)
	}

	// Loss visibility: the rates must reflect the shed, and match the
	// counters they summarize.
	lost := st.FillQueue.Lost() + st.LookQueue.Lost() + st.WriteQueue.Lost()
	offered := st.FillQueue.Offered() + st.LookQueue.Offered() + st.WriteQueue.Offered()
	if want := float64(lost) / float64(offered); st.LossRate() != want {
		t.Fatalf("LossRate = %v, want %v", st.LossRate(), want)
	}
	sampled := st.FillQueue.Sampled + st.LookQueue.Sampled + st.WriteQueue.Sampled
	if want := float64(sampled) / float64(offered); st.SampledRate() != want {
		t.Fatalf("SampledRate = %v, want %v", st.SampledRate(), want)
	}
	if st.SampledRate() <= 0 || st.LossRate() < st.SampledRate() {
		t.Fatalf("rates do not reflect the shed: loss %v sampled %v", st.LossRate(), st.SampledRate())
	}

	// Exactly-once delivery of the accepted records: the rollup saw every
	// written flow once, with its bytes.
	mu.Lock()
	defer mu.Unlock()
	var gotFlows, gotBytes uint64
	for _, w := range sealed {
		for _, r := range w.Rows {
			gotFlows += r.Flows
			gotBytes += r.Bytes
		}
	}
	if gotFlows != st.Written {
		t.Fatalf("rollup flows %d != written %d", gotFlows, st.Written)
	}
	if gotBytes != st.Written*100 {
		t.Fatalf("rollup bytes %d != written %d × 100", gotBytes, st.Written)
	}
	t.Logf("flood: offered %d+%d, sampled %d, dropped %d, written %d",
		offeredDNS, offeredFlows, sampled,
		st.FillQueue.Dropped+st.LookQueue.Dropped+st.WriteQueue.Dropped, st.Written)
}

// TestOverloadSoak is the nightly overloaded soak: sustained generator
// traffic over a real loopback socket into the undersized pipeline with the
// sampler enabled, under -race. It checks the accounting invariant holds
// after minutes of concurrent shed/drop/drain churn, and that the
// source-side drop counter still agrees with the queues. Runs only when
// FLOWDNS_SOAK is set to a duration; PR CI skips it.
func TestOverloadSoak(t *testing.T) {
	soak := os.Getenv("FLOWDNS_SOAK")
	if soak == "" {
		t.Skip("set FLOWDNS_SOAK=60s to run the overloaded soak")
	}
	dur, err := time.ParseDuration(soak)
	if err != nil {
		t.Fatalf("bad FLOWDNS_SOAK %q: %v", soak, err)
	}

	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := undersizedConfig()
	sink := core.NewCountingSink()
	src := stream.NewFlowUDPSource(nfConn)
	c := core.New(cfg, core.WithSink(sink), core.WithSources(src))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

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
		dns := g.DNSBatch(ts, 400)
		c.OfferDNSBatch(dns)
		offeredDNS += uint64(len(dns))
		for _, fr := range g.FlowBatch(ts, 800) {
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
		// No pacing sleep: the point is to keep the pipeline overloaded.
	}
	udp.Close()
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}
	// Snapshot the source only after Run returns: until then it may still
	// be ingesting datagrams buffered in the socket.
	srcStats := src.Stats()

	st := c.Stats()
	t.Logf("overload soak: %v, source %+v, fill %+v look %+v write %+v written %d",
		dur, srcStats, st.FillQueue, st.LookQueue, st.WriteQueue, st.Written)
	if st.LookQueue.Sampled == 0 && st.FillQueue.Sampled == 0 {
		t.Fatalf("sustained overload never engaged the sampler: %+v", st)
	}
	// Source-side agreement: everything the source decoded was offered to
	// the look queues and is fully accounted there, and the source's own
	// drop counter equals the queues' accidental overflow.
	if st.LookQueue.Offered() != srcStats.Records {
		t.Fatalf("look queues account %d records, source offered %d",
			st.LookQueue.Offered(), srcStats.Records)
	}
	if srcStats.Dropped != st.LookQueue.Dropped {
		t.Fatalf("source dropped %d != look queue Dropped %d", srcStats.Dropped, st.LookQueue.Dropped)
	}
	if st.FillQueue.Offered() != offeredDNS {
		t.Fatalf("fill queues account %d records, test offered %d", st.FillQueue.Offered(), offeredDNS)
	}
	if st.WriteQueue.Offered() != st.LookQueue.Dequeued {
		t.Fatalf("write queue offered %d != look dequeued %d", st.WriteQueue.Offered(), st.LookQueue.Dequeued)
	}
	if st.Written != st.WriteQueue.Dequeued {
		t.Fatalf("written %d != write queue dequeued %d", st.Written, st.WriteQueue.Dequeued)
	}
	total := uint64(0)
	for _, n := range sink.Flows() {
		total += n
	}
	if total != st.Written {
		t.Fatalf("sink saw %d flows, pipeline wrote %d", total, st.Written)
	}
}
