package core

// Ablation benchmarks for the design parameters the paper discusses in §6
// ("Lessons Learned"): the split count ("splitting the data into several
// shards allows for higher parallelism, while consuming higher CPU"), the
// CNAME chain limit ("we had to limit the chain length to 6 due to
// performance reasons"), and the stage-queue capacity that defends against
// stream loss. Run with:
//
//	go test -bench=Ablation -benchmem ./internal/core/
import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/netflow"
	"repro/internal/stream"
)

// ablationWorkload pre-builds a deterministic record set shared by the
// sweeps.
func ablationWorkload(n int) ([]stream.DNSRecord, []netflow.FlowRecord) {
	dns := make([]stream.DNSRecord, 0, n)
	flows := make([]netflow.FlowRecord, 0, n)
	for i := 0; i < n; i++ {
		ip := fmt.Sprintf("198.%d.%d.%d", 16+i%8, (i/256)%256, i%256)
		dns = append(dns, aRec(t0.Add(time.Duration(i)*time.Millisecond),
			fmt.Sprintf("svc%d.example", i%512), ip, 300))
		flows = append(flows, flow(t0.Add(time.Duration(i)*time.Millisecond), ip, 1000))
	}
	return dns, flows
}

// BenchmarkAblationNumSplit sweeps NUM_SPLIT under parallel lookups: the
// trade-off the paper measures with its NoSplit variant.
func BenchmarkAblationNumSplit(b *testing.B) {
	dns, flows := ablationWorkload(4096)
	for _, splits := range []int{1, 2, 10, 32} {
		b.Run(fmt.Sprintf("splits=%d", splits), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumSplit = splits
			c := New(cfg)
			for _, rec := range dns {
				c.IngestDNS(rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					c.CorrelateFlow(flows[i&4095])
					i++
				}
			})
		})
	}
}

// BenchmarkAblationChainLimit sweeps the CNAME chain limit over a deep
// alias graph; cost grows with the limit, which is why the paper caps it.
func BenchmarkAblationChainLimit(b *testing.B) {
	for _, limit := range []int{1, 3, 6, 12} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.CNAMEChainLimit = limit
			c := New(cfg)
			// 16-deep chain so every limit is exercised fully.
			for i := 0; i < 16; i++ {
				c.IngestDNS(cnameRec(t0, fmt.Sprintf("n%d.example", i+1), fmt.Sprintf("n%d.example", i), 300))
			}
			c.IngestDNS(aRec(t0, "n0.example", "198.51.100.77", 300))
			fr := flow(t0, "198.51.100.77", 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Disable the memoization shortcut's effect by alternating
				// a cold store? Memoization is part of the design; measure
				// the steady state it produces.
				c.CorrelateFlow(fr)
			}
		})
	}
}

// BenchmarkAblationQueueCapacity measures drop rates under a bursty
// producer for different stage-queue capacities — the knob that keeps "the
// buffer usage stable to avoid any loss".
func BenchmarkAblationQueueCapacity(b *testing.B) {
	dns, flows := ablationWorkload(8192)
	for _, capacity := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			var lastLoss float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig()
				cfg.FillQueueCap, cfg.LookQueueCap = capacity, capacity
				c := New(cfg)
				ctx, cancel := context.WithCancel(context.Background())
				runDone := make(chan error, 1)
				go func() { runDone <- c.Run(ctx) }()
				c.OfferDNSBatch(dns)
				c.OfferFlowBatch(flows)
				cancel()
				<-runDone
				lastLoss = c.Stats().LossRate()
			}
			b.ReportMetric(lastLoss, "loss_rate")
		})
	}
}

// BenchmarkAblationRotation compares the cost of a clear-up with and
// without buffer rotation at a realistic store size.
func BenchmarkAblationRotation(b *testing.B) {
	for _, rotation := range []bool{true, false} {
		name := "rotation"
		if !rotation {
			name = "clear-only"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.DisableRotation = !rotation
			dns, _ := ablationWorkload(2048)
			b.ReportAllocs()
			b.ResetTimer()
			// Each iteration fills a fresh store and triggers one clear-up;
			// the rotation-vs-clear cost difference shows in the delta
			// between the two sub-benchmarks (the fill cost is identical).
			for i := 0; i < b.N; i++ {
				c := New(cfg)
				for _, rec := range dns {
					c.IngestDNS(rec)
				}
				c.IngestDNS(aRec(t0.Add(2*time.Hour), "trigger.example", "203.0.113.99", 60))
			}
		})
	}
}
