// Repository-level benchmarks: one per table/figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index). Each benchmark
// executes the corresponding experiment end to end — workload generation,
// correlation, measurement — and reports the experiment's key metrics as
// custom benchmark outputs, so `go test -bench=. -benchmem` regenerates the
// whole evaluation in one run.
//
// Absolute resource numbers differ from the paper's 128-core testbed by
// construction; the metrics to compare are the *shapes*: correlation-rate
// ordering across variants, NoClearUp state growth, exact-TTL collapse,
// distribution percentiles.
package repro

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dbl"
	"repro/internal/dnswire"
	"repro/internal/experiments"
	"repro/internal/netflow"
	"repro/internal/queryapi"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/winstore"
)

// benchScale balances fidelity and wall time; heavyweight multi-day
// experiments run at reduced (but still substantial) scale.
const (
	benchScaleHeavy = 0.35
	benchScaleLight = 1.0
)

func runExperiment(b *testing.B, id string, scale float64, metrics []string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = e.Run(scale)
	}
	if r == nil {
		b.Fatal("no result")
	}
	for _, m := range metrics {
		if v, ok := r.Values[m]; ok {
			b.ReportMetric(v, m)
		} else {
			b.Fatalf("metric %q missing from %s", m, id)
		}
	}
	b.Logf("%s: %s", id, r.Headline)
}

// --- batched-vs-per-record sink write path (API v2 redesign) ---
//
// The v1 Sink wrote one record per call behind a mutex with fmt.Fprintf;
// the lane workers hand the sink one correlated batch per round, which
// amortizes one lock acquisition and one buffered write per batch.
// BenchmarkSinkWrite/per-record-v1 replicates the old cost model;
// /batch=1 isolates the interface change; /batch=64 and /batch=256
// bracket the deployed path (a lane round hands the sink up to 128). Run with:
//
//	go test -bench=BenchmarkSinkWrite -benchmem .

// legacyTSVSink replicates the v1 per-record write path for comparison.
type legacyTSVSink struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (s *legacyTSVSink) write(cf core.CorrelatedFlow) {
	name := cf.Name
	if name == "" {
		name = "NULL"
	}
	s.mu.Lock()
	fmt.Fprintf(s.w, "%d\t%s\t%s\t%d\t%d\t%s\t%s\t%d\n",
		cf.Flow.Timestamp.Unix(), cf.Flow.SrcIP, cf.Flow.DstIP,
		cf.Flow.Bytes, cf.Flow.Packets, name, cf.Tier, cf.ChainLen)
	s.mu.Unlock()
}

func benchDNSRecord(ts time.Time, i int) stream.DNSRecord {
	return stream.DNSRecord{
		Timestamp: ts,
		Query:     fmt.Sprintf("svc%d.example", i),
		RType:     dnswire.TypeA,
		TTL:       300,
		Answer:    netip.AddrFrom4([4]byte{198, 51, byte(i / 250), byte(i%250 + 1)}).String(),
	}
}

func benchCorrelatedFlows(n int) []core.CorrelatedFlow {
	t0 := time.Unix(1653475200, 0)
	out := make([]core.CorrelatedFlow, n)
	for i := range out {
		out[i] = core.CorrelatedFlow{
			Flow: netflow.FlowRecord{
				Timestamp: t0,
				SrcIP:     netip.AddrFrom4([4]byte{198, 51, byte(i / 250), byte(i%250 + 1)}),
				DstIP:     netip.AddrFrom4([4]byte{10, 0, 0, 1}),
				SrcPort:   443, DstPort: 50000, Proto: netflow.ProtoTCP,
				Packets: 10, Bytes: 1500,
			},
			Name: fmt.Sprintf("svc%d.example", i%512),
			Tier: core.TierActive,
		}
	}
	return out
}

func BenchmarkSinkWrite(b *testing.B) {
	const n = 4096
	flows := benchCorrelatedFlows(n)
	ctx := context.Background()

	b.Run("per-record-v1", func(b *testing.B) {
		s := &legacyTSVSink{w: bufio.NewWriterSize(io.Discard, 1<<16)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.write(flows[i%n])
		}
	})
	for _, size := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			sink := core.NewTSVSink(io.Discard)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				end := i%n + size
				if end > n {
					end = n
				}
				if err := sink.WriteBatch(ctx, flows[i%n:end]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Under write-worker contention the lock amortization dominates.
	b.Run("parallel/per-record-v1", func(b *testing.B) {
		s := &legacyTSVSink{w: bufio.NewWriterSize(io.Discard, 1<<16)}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				s.write(flows[i%n])
				i++
			}
		})
	})
	b.Run("parallel/batch=256", func(b *testing.B) {
		sink := core.NewTSVSink(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			batch := make([]core.CorrelatedFlow, 0, 256)
			for pb.Next() {
				batch = append(batch, flows[i%n])
				i++
				if len(batch) == 256 {
					if err := sink.WriteBatch(ctx, batch); err != nil {
						b.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			if len(batch) > 0 {
				sink.WriteBatch(ctx, batch)
			}
		})
	})
}

// BenchmarkPipelineBatchedWrites measures the full async pipeline on the
// lane path: offered flows per second from the ingest façade through the
// lanes, which correlate and hand each round's batch to the sink.
func BenchmarkPipelineBatchedWrites(b *testing.B) {
	const services = 512
	t0 := time.Unix(1653475200, 0)
	flows := make([]netflow.FlowRecord, 4096)
	for i := range flows {
		flows[i] = netflow.FlowRecord{
			Timestamp: t0,
			SrcIP:     netip.AddrFrom4([4]byte{198, 51, byte((i % services) / 250), byte((i%services)%250 + 1)}),
			DstIP:     netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			SrcPort:   443, DstPort: 50000, Proto: netflow.ProtoTCP,
			Packets: 10, Bytes: 1500,
		}
	}
	cfg := core.DefaultConfig()
	c := core.New(cfg, core.WithSink(core.NewTSVSink(io.Discard)))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	dns := make([]stream.DNSRecord, services)
	for i := range dns {
		dns[i] = benchDNSRecord(t0, i)
	}
	c.OfferDNSBatch(dns)
	for c.Stats().DNSRecords < services {
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Offer with backpressure (never drop) and time until the sink has
	// written everything, so the measurement is true ingest-to-sink
	// throughput, not queue-offer cost.
	var offered uint64
	// Flows route by source IP (the default lookup key), and each lane's
	// flow ring holds only its 1/Lanes() share of LookQueueCap: throttle on
	// the deepest lane, not on the total depth.
	laneHalf := cfg.LookQueueCap / c.Lanes() / 2
	for i := 0; i < b.N; i += 512 {
		for {
			if _, lanes := c.LaneDepths(); slices.Max(lanes) < laneHalf {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		offered += uint64(c.OfferFlowBatch(flows[:512]))
	}
	for c.Stats().Written < offered {
		// A drop would make Written permanently short of offered; fail
		// instead of hanging.
		if st := c.Stats(); st.LookQueue.Dropped > 0 {
			b.Fatalf("benchmark dropped records (look=%d); backpressure broken", st.LookQueue.Dropped)
		}
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	cancel()
	<-runDone
}

// BenchmarkRollupObserve measures the attribution-rollup hot path. It is
// part of the benchstat-guarded set (scripts/benchregress.sh): the rollup
// sink rides the Write stage of every flow, so a regression here is a
// regression of the whole pipeline's ceiling. All three variants must
// report 0 allocs/op — the hit path (window and key already seen on the
// shard) is allocation-free by design.
//
//   - engine: Rollup.Observe alone, single shard.
//   - sink: the full attributed path per record — BGP longest-prefix match
//     on the source address, blocklist category for the service, Observe —
//     through Sink.WriteBatch in deployment-sized batches.
//   - engine/parallel: concurrent observers on distinct shards (the
//     per-worker shard assignment), checking the no-contention claim.
func BenchmarkRollupObserve(b *testing.B) {
	t0 := time.Unix(1653475200, 0)
	const services = 512
	keys := make([]rollup.Key, services)
	for i := range keys {
		keys[i] = rollup.Key{
			Service:  fmt.Sprintf("svc%d.example", i),
			ASN:      uint32(64500 + i%16),
			Category: dbl.Category(i % 6),
		}
	}

	b.Run("engine", func(b *testing.B) {
		r := rollup.New(time.Minute, 8)
		for _, k := range keys {
			r.Observe(0, t0, k, 1, 1) // seed the hit path
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Observe(0, t0, keys[i%services], 1500, 10)
		}
	})

	b.Run("sink", func(b *testing.B) {
		table := bgp.NewTable()
		list := dbl.NewList()
		flows := benchCorrelatedFlows(4096)
		for i := range flows {
			prefix, err := flows[i].Flow.SrcIP.Prefix(24)
			if err != nil {
				b.Fatal(err)
			}
			if err := table.Insert(prefix, uint32(64500+i%16)); err != nil {
				b.Fatal(err)
			}
			if i%7 == 0 {
				list.Add(flows[i].Name, dbl.Spam)
			}
		}
		table.Freeze()
		r := rollup.New(time.Minute, 8)
		sink := rollup.NewSink(r, rollup.WithTable(table), rollup.WithBlocklist(list))
		ctx := context.Background()
		for s := 0; s < r.Shards(); s++ {
			sink.WriteBatch(ctx, flows) // seed every shard's hit path
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 256 {
			off := (i / 256 * 256) % 4096
			if err := sink.WriteBatch(ctx, flows[off:off+256]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("engine/parallel", func(b *testing.B) {
		r := rollup.New(time.Minute, 2*runtime.GOMAXPROCS(0))
		for s := 0; s < r.Shards(); s++ {
			for _, k := range keys {
				r.Observe(s, t0, k, 1, 1)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			shard := r.NextShard() // one shard per observer, as the sink assigns
			i := 0
			for pb.Next() {
				r.Observe(shard, t0, keys[i%services], 1500, 10)
				i++
			}
		})
	})
}

// BenchmarkCorrelate measures the LookUp hot path in isolation: the cost of
// resolving one flow against a populated IP-NAME store (Algorithm 2), serial
// and under full multi-core contention. The parallel variant is the number
// the sharded-lane design targets: with lanes aligned to the store layout,
// concurrent lane workers touch disjoint shard slices and scale with
// cores instead of serializing on shared generations.
func BenchmarkCorrelate(b *testing.B) {
	const services = 4096
	t0 := time.Unix(1653475200, 0)
	mkFlows := func() []netflow.FlowRecord {
		flows := make([]netflow.FlowRecord, services)
		for i := range flows {
			flows[i] = netflow.FlowRecord{
				Timestamp: t0,
				SrcIP:     netip.AddrFrom4([4]byte{198, 51, byte(i / 250), byte(i%250 + 1)}),
				DstIP:     netip.AddrFrom4([4]byte{203, 0, byte(i / 250), byte(i%250 + 1)}),
				SrcPort:   443, DstPort: 50000, Proto: netflow.ProtoTCP,
				Packets: 10, Bytes: 1500,
			}
		}
		return flows
	}
	fill := func(c *core.Correlator) {
		for i := 0; i < services; i++ {
			c.IngestDNS(benchDNSRecord(t0, i))
		}
	}

	b.Run("hit", func(b *testing.B) {
		c := core.New(core.DefaultConfig())
		fill(c)
		flows := mkFlows()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cf := c.CorrelateFlow(flows[i%services])
			if !cf.Correlated() {
				b.Fatal("expected hit")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := core.New(core.DefaultConfig())
		fill(c)
		flows := mkFlows()
		for i := range flows {
			flows[i].SrcIP = netip.AddrFrom4([4]byte{192, 0, 2, byte(i%250 + 1)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.CorrelateFlow(flows[i%services])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c := core.New(core.DefaultConfig())
		fill(c)
		flows := mkFlows()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				c.CorrelateFlow(flows[i%services])
				i++
			}
		})
	})
	// The lane-worker path at the acceptance configuration: 8 lanes,
	// batch lookups with amortized stats, as the sharded pipeline runs it.
	b.Run("parallel/lanes=8", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Lanes = 8
		c := core.New(cfg)
		fill(c)
		flows := mkFlows()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			in := make([]netflow.FlowRecord, 0, 128)
			out := make([]core.CorrelatedFlow, 0, 128)
			for pb.Next() {
				in = append(in, flows[i%services])
				i++
				if len(in) == cap(in) {
					out = c.CorrelateBatch(out[:0], in)
					in = in[:0]
				}
			}
			if len(in) > 0 {
				c.CorrelateBatch(out[:0], in)
			}
		})
	})
}

func BenchmarkTable1Config(b *testing.B) {
	runExperiment(b, "table1", benchScaleLight,
		[]string{"a_clear_up_seconds", "c_clear_up_seconds", "num_split", "chain_limit"})
}

// BenchmarkFig2MainWeek regenerates Figure 2: CPU and memory usage of the
// Main configuration over one simulated week with diurnal traffic.
func BenchmarkFig2MainWeek(b *testing.B) {
	runExperiment(b, "fig2", benchScaleHeavy,
		[]string{"traffic_peak_over_trough", "entries_peak_over_trough", "mean_corr_rate", "loss_rate"})
}

// BenchmarkFig3Variants regenerates Figure 3: CPU and memory for
// Main/NoClearUp/NoLong/NoRotation/NoSplit over one simulated day.
func BenchmarkFig3Variants(b *testing.B) {
	runExperiment(b, "fig3", benchScaleHeavy,
		[]string{"Main_corr", "NoClearUp_corr", "NoLong_corr", "NoRotation_corr", "NoSplit_corr",
			"Main_entries_end", "NoClearUp_entries_end"})
}

// BenchmarkFig4ASAttribution regenerates Figure 4: per-source-AS traffic
// for the two streaming services over a week.
func BenchmarkFig4ASAttribution(b *testing.B) {
	runExperiment(b, "fig4", benchScaleHeavy,
		[]string{"s1_as_count", "s2_as_count", "s1_top1_share", "s2_top2_share"})
}

// BenchmarkFig5Malicious regenerates Figure 5: cumulative traffic volume
// per number of suspicious/malformed domain names.
func BenchmarkFig5Malicious(b *testing.B) {
	runExperiment(b, "fig5", benchScaleHeavy,
		[]string{"suspicious_traffic_share", "malformed_traffic_share", "invalid_domain_share", "underscore_share"})
}

// BenchmarkFig6ChainLength regenerates Figure 6: the CNAME chain length
// ECDF (>99 % within 6 hops).
func BenchmarkFig6ChainLength(b *testing.B) {
	runExperiment(b, "fig6", benchScaleLight, []string{"p_within_6", "p99_len", "max_len"})
}

// BenchmarkFig7CorrelationRate regenerates Figure 7: hourly correlation
// rate per variant.
func BenchmarkFig7CorrelationRate(b *testing.B) {
	runExperiment(b, "fig7", benchScaleHeavy,
		[]string{"Main_mean_corr", "NoClearUp_mean_corr", "NoLong_mean_corr", "NoRotation_mean_corr"})
}

// BenchmarkFig8TTLDist regenerates Figure 8: TTL ECDFs per record type
// (99 % of A/AAAA below 3600 s, CNAME below 7200 s).
func BenchmarkFig8TTLDist(b *testing.B) {
	runExperiment(b, "fig8", benchScaleLight,
		[]string{"a_le_300", "a_lt_3600", "cname_lt_7200"})
}

// BenchmarkFig9NamesPerIP regenerates Figure 9: names-per-IP ECDF (~88 %
// single-name IPs in a 300 s window).
func BenchmarkFig9NamesPerIP(b *testing.B) {
	runExperiment(b, "fig9", benchScaleLight,
		[]string{"single_name_300s", "single_name_1h"})
}

// BenchmarkCorrelationHeadline regenerates the §4 headline: 81.7 %
// correlation, ~0 loss, bounded write delay, on the full async pipeline.
func BenchmarkCorrelationHeadline(b *testing.B) {
	runExperiment(b, "corr", benchScaleHeavy,
		[]string{"corr_rate", "loss_rate", "write_delay_seconds"})
}

// BenchmarkCoverage regenerates the §4 coverage analysis (95 %).
func BenchmarkCoverage(b *testing.B) {
	runExperiment(b, "coverage", benchScaleHeavy, []string{"coverage", "public_share"})
}

// BenchmarkAccuracyScenarios regenerates the §4 accuracy experiment
// (100 % on distinct IPs, 50 % on a shared IP).
func BenchmarkAccuracyScenarios(b *testing.B) {
	runExperiment(b, "accuracy", benchScaleLight,
		[]string{"scenario1_accuracy", "scenario2_accuracy"})
}

// BenchmarkExactTTL regenerates Appendix A.8: exact-TTL expiry versus Main
// under identical load.
func BenchmarkExactTTL(b *testing.B) {
	runExperiment(b, "exactttl", benchScaleHeavy,
		[]string{"tput_ratio", "exactttl_loss", "main_loss"})
}

// --- DNS fill path (allocation-free FillUp redesign) ---
//
// BenchmarkIngestDNS measures the FillUp hot path: one A-record ingest
// against a populated store (every answer address already present — the
// steady-state overwrite workload of CDN re-announcements). Both the
// benchstat-guarded regression set and the README's before/after numbers
// come from here. The acceptance bar for the fill-path redesign: 0
// allocs/op on the typed A/AAAA hit path in both non-exact and exact-TTL
// modes, and >=2x records/sec over the pre-redesign record-at-a-time
// baseline (~220 ns/op engine, ~350 ns/op exact-TTL, 1 and 3 allocs/op
// respectively).
//
//   - engine: record-at-a-time IngestDNS, Main config.
//   - engine/batch=128: the lane worker's fill path — IngestDNSBatch with
//     per-batch clear-up, stats, and shard-lock amortization.
//   - exact-ttl, exact-ttl/batch=128: the same two paths in Appendix A.8
//     mode, where the typed (value, expiry) entries replaced the
//     "value\x00unixNano" string encoding.
//   - string-answer: the fallback path for records without a typed
//     address (hand-built or legacy captures) — pays the one parse.
//   - parallel/fill-lanes=8: concurrent batched ingest across 8 lanes
//     aligned with the store's lane-major split layout (the name predates
//     the merge of fill and correlation lanes; it is kept so the guarded
//     series stays comparable).
func BenchmarkIngestDNS(b *testing.B) {
	const n = 4096
	typedRecs := func() []stream.DNSRecord {
		t0 := time.Unix(1653475200, 0)
		recs := make([]stream.DNSRecord, n)
		for i := range recs {
			recs[i] = stream.DNSRecord{
				Timestamp: t0,
				Query:     fmt.Sprintf("svc%d.example", i%512),
				RType:     dnswire.TypeA,
				TTL:       300,
				Addr:      netip.AddrFrom4([4]byte{198, 51, byte(i / 250), byte(i%250 + 1)}),
			}
		}
		return recs
	}

	seed := func(c *core.Correlator, recs []stream.DNSRecord) {
		for i := range recs {
			c.IngestDNS(recs[i])
		}
	}

	single := func(b *testing.B, cfg core.Config) {
		c := core.New(cfg)
		recs := typedRecs()
		seed(c, recs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.IngestDNS(recs[i%n])
		}
	}
	// makeLaneBatches partitions recs per lane (as OfferDNSBatch does) and
	// slices each lane's records into batchSize-record batches — the
	// workload shape the lane workers drain.
	makeLaneBatches := func(c *core.Correlator, recs []stream.DNSRecord, batchSize int) [][]stream.DNSRecord {
		perLane := make([][]stream.DNSRecord, c.Lanes())
		for i := range recs {
			l := c.LaneFor(&recs[i])
			perLane[l] = append(perLane[l], recs[i])
		}
		var batches [][]stream.DNSRecord
		for _, lr := range perLane {
			for off := 0; off+batchSize <= len(lr); off += batchSize {
				batches = append(batches, lr[off:off+batchSize])
			}
			if rem := len(lr) % batchSize; rem > 0 {
				batches = append(batches, lr[len(lr)-rem:])
			}
		}
		return batches
	}

	// batch models the lane worker's fill step: batches are lane-local (the
	// OfferDNSBatch partition routes every record to the lane owning its
	// answer address), so a batch's puts concentrate on that lane's split
	// slice and the shard-lock amortization is the deployed one.
	batch := func(b *testing.B, cfg core.Config) {
		c := core.New(cfg)
		recs := typedRecs()
		seed(c, recs)
		batches := makeLaneBatches(c, recs, 128)
		b.ReportAllocs()
		b.ResetTimer()
		done := 0
		for done < b.N {
			for _, bb := range batches {
				c.IngestDNSBatch(bb)
				done += len(bb)
				if done >= b.N {
					break
				}
			}
		}
	}

	b.Run("engine", func(b *testing.B) { single(b, core.DefaultConfig()) })
	b.Run("engine/batch=128", func(b *testing.B) { batch(b, core.DefaultConfig()) })
	exact := core.ConfigForVariant(core.VariantExactTTL)
	b.Run("exact-ttl", func(b *testing.B) { single(b, exact) })
	b.Run("exact-ttl/batch=128", func(b *testing.B) { batch(b, exact) })

	b.Run("string-answer", func(b *testing.B) {
		c := core.New(core.DefaultConfig())
		recs := typedRecs()
		for i := range recs {
			recs[i].Answer = recs[i].Addr.String()
			recs[i].Addr = netip.Addr{}
		}
		seed(c, recs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.IngestDNS(recs[i%n])
		}
	})

	b.Run("parallel/fill-lanes=8", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Lanes = 8
		c := core.New(cfg)
		recs := typedRecs()
		seed(c, recs)
		// Lane-local batches, exactly as the batch variant builds them: a
		// concurrent worker always ingests one lane's records, as the
		// deployed lane workers do.
		batches := makeLaneBatches(c, recs, 128)
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				bb := batches[int(next.Add(1))%len(batches)]
				c.IngestDNSBatch(bb)
				// One pb.Next() per record: account the batch remainder.
				for k := 1; k < len(bb) && pb.Next(); k++ {
				}
			}
		})
	})
}

// BenchmarkFlattenResponse measures wire-message flattening: the step
// between the DNS TCP decoder and the fill queue. The typed-answer change
// removed the per-answer Addr.String() round-trip, and flattening into a
// reused buffer ("into"; the TCP source keeps one per connection) removes
// the per-frame slice allocation that a nil dst ("fresh") pays — 0
// allocs/op.
func BenchmarkFlattenResponse(b *testing.B) {
	msg := &dnswire.Message{
		Header: dnswire.Header{ID: 7, Response: true},
		Questions: []dnswire.Question{
			{Name: "svc.example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
		Answers: []dnswire.Record{
			{Name: "svc.example.com", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300, Target: "edge.cdn.example"},
			{Name: "edge.cdn.example", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: netip.AddrFrom4([4]byte{198, 51, 100, 7})},
			{Name: "edge.cdn.example", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: netip.AddrFrom4([4]byte{198, 51, 100, 8})},
			{Name: "edge.cdn.example", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN, TTL: 60, Addr: netip.MustParseAddr("2001:db8::7")},
		},
	}
	t0 := time.Unix(1653475200, 0)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if recs := stream.FlattenResponseInto(nil, msg, t0); len(recs) != 4 {
				b.Fatal("bad flatten")
			}
		}
	})
	b.Run("into", func(b *testing.B) {
		buf := make([]stream.DNSRecord, 0, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = stream.FlattenResponseInto(buf[:0], msg, t0)
			if len(buf) != 4 {
				b.Fatal("bad flatten")
			}
		}
	})
}

// --- query/serving plane (winstore + queryapi) ---

// benchQueryStore persists `parts` hour-long partitions of one-minute
// windows with `rowsPerWin` distinct attribution keys each — the shape a few
// hours of sealed rollups leave on disk.
func benchQueryStore(b *testing.B, parts, winsPerPart, rowsPerWin int) *winstore.Store {
	b.Helper()
	store, err := winstore.Open(winstore.Config{Dir: b.TempDir(), PartDur: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	base := time.Unix(1653475200, 0).UTC()
	for p := 0; p < parts; p++ {
		ws := make([]rollup.Window, 0, winsPerPart)
		for i := 0; i < winsPerPart; i++ {
			w := rollup.Window{
				Start: base.Add(time.Duration(p)*time.Hour + time.Duration(i)*time.Minute),
				Dur:   time.Minute,
			}
			for r := 0; r < rowsPerWin; r++ {
				w.Rows = append(w.Rows, rollup.Row{
					Key: rollup.Key{
						Service:  fmt.Sprintf("svc%d.example", r),
						ASN:      uint32(64500 + r%16),
						Category: dbl.Category(r % 6),
					},
					Counters: rollup.Counters{Bytes: 1500 * uint64(r+1), Packets: 10, Flows: 1},
				})
			}
			ws = append(ws, rollup.MergeAll([]rollup.Window{w})) // canonical order, as seals arrive
		}
		if err := store.Add(ws); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

// BenchmarkQueryRange measures the query plane's range-read path over a
// persisted six-hour store (360 one-minute windows × 256 keys): store scan,
// per-interval merge, step bucketing, top-N cut, JSON marshal, HTTP
// handler. Guarded by scripts/benchregress.sh.
//
//   - materialize: every request misses the cache (capacity 1, two
//     alternating parameter tuples) — the full computation.
//   - cached: the steady dashboard-refresh path — same tuple every time, the
//     pre-marshaled body is served straight from the LRU.
func BenchmarkQueryRange(b *testing.B) {
	store := benchQueryStore(b, 6, 60, 256)
	defer store.Close()
	oldest, newest := store.Bounds()
	urlFor := func(step int) string {
		return fmt.Sprintf("/query/services?from=%d&to=%d&step=%d&top=10",
			oldest.Unix(), newest.Unix(), step)
	}

	run := func(b *testing.B, srv *queryapi.Server, urls []string) {
		b.Helper()
		h := srv.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodGet, urls[i%len(urls)], nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}

	b.Run("materialize", func(b *testing.B) {
		srv, err := queryapi.New(store, queryapi.WithCache(1))
		if err != nil {
			b.Fatal(err)
		}
		// Two tuples through a one-entry cache: every request evicts the
		// other's body, so each iteration pays the full scan+marshal.
		run(b, srv, []string{urlFor(60), urlFor(300)})
	})
	b.Run("cached", func(b *testing.B) {
		srv, err := queryapi.New(store)
		if err != nil {
			b.Fatal(err)
		}
		run(b, srv, []string{urlFor(60)})
	})
}

// BenchmarkCompact measures the store's compaction kernel: collapsing one
// hour of partial seals (60 intervals × 8 partials × 128 rows) into one
// canonical window per interval via the rollup merge laws. This is the
// CPU-bound core of CompactBefore (the segment rewrite around it is I/O).
// Guarded by scripts/benchregress.sh.
func BenchmarkCompact(b *testing.B) {
	base := time.Unix(1653475200, 0).UTC()
	var windows []rollup.Window
	for i := 0; i < 60; i++ {
		for p := 0; p < 8; p++ {
			w := rollup.Window{Start: base.Add(time.Duration(i) * time.Minute), Dur: time.Minute}
			for r := 0; r < 128; r++ {
				w.Rows = append(w.Rows, rollup.Row{
					Key: rollup.Key{
						// Half the keys collide across partials (the merge
						// path), half are partial-local (the append path).
						Service:  fmt.Sprintf("svc%d.example", r+64*(p%2)),
						ASN:      uint32(64500 + r%16),
						Category: dbl.Category(r % 6),
					},
					Counters: rollup.Counters{Bytes: 1500, Packets: 10, Flows: 1},
				})
			}
			windows = append(windows, rollup.MergeAll([]rollup.Window{w}))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := winstore.CompactWindows(windows)
		if len(out) != 60 {
			b.Fatalf("compacted to %d intervals, want 60", len(out))
		}
	}
}

// snapshotBenchCorrelator builds a correlator holding a realistic store: n
// A-record entries across 512 service names plus a CNAME layer, the shape
// a few hours of resolver traffic leaves behind.
func snapshotBenchCorrelator(n int) *core.Correlator {
	c := core.New(core.DefaultConfig())
	t0 := time.Unix(1653475200, 0)
	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		c.IngestDNS(stream.DNSRecord{
			Timestamp: t0, Query: fmt.Sprintf("edge%d.cdn.example", i%512),
			RType: dnswire.TypeA, TTL: 300, Addr: addr,
		})
		if i%8 == 0 {
			c.IngestDNS(stream.DNSRecord{
				Timestamp: t0, Query: fmt.Sprintf("svc%d.example", i%512),
				RType: dnswire.TypeCNAME, TTL: 300,
				Answer: fmt.Sprintf("edge%d.cdn.example", i%512),
			})
		}
	}
	return c
}

// BenchmarkSnapshot measures the checkpoint write path: a full store scan
// (lock-striped AppendShard iteration) plus codec encoding, per entry.
// Guarded by scripts/benchregress.sh.
func BenchmarkSnapshot(b *testing.B) {
	const n = 100_000
	c := snapshotBenchCorrelator(n)
	ip, cn := c.StoreSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteSnapshot(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ip+cn), "entries")
}

// BenchmarkRestore measures the boot-time restore path: decode, expiry
// filter, re-intern, re-insert. The fresh correlator per iteration is part
// of the cost a real boot pays. Guarded by scripts/benchregress.sh.
func BenchmarkRestore(b *testing.B) {
	const n = 100_000
	src := snapshotBenchCorrelator(n)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, 1); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	now := time.Unix(1653475200, 0)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.New(core.DefaultConfig())
		st, err := c.Restore(bytes.NewReader(data), now)
		if err != nil {
			b.Fatal(err)
		}
		if st.Entries == 0 {
			b.Fatal("empty restore")
		}
	}
}
