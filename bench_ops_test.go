package repro

import (
	"testing"

	"repro/internal/influxsink"
	"repro/internal/queue"
)

// BenchmarkInfluxEncode measures the line-protocol encoding of one
// correlated flow — the per-record cost the influx sink adds on top of the
// lanes' batching. The buffer is reused across iterations, as the
// sink reuses its batch buffer; the encode path must stay allocation-free.
//
//	go test -bench=BenchmarkInfluxEncode -benchmem .
func BenchmarkInfluxEncode(b *testing.B) {
	flows := benchCorrelatedFlows(512)
	buf := make([]byte, 0, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = influxsink.AppendPoint(buf[:0], "flowdns", &flows[i%len(flows)])
	}
}

// BenchmarkSample measures the sampler's cost on the queue offer path: the
// disabled case is the historical hot path (one extra branch), the enabled
// cases pay the fill computation and the fixed-point credit accounting.
// Consumers drain concurrently so offers land across the fill range.
//
//	go test -bench=BenchmarkSample -benchmem .
func BenchmarkSample(b *testing.B) {
	run := func(b *testing.B, sampler queue.SamplerConfig) {
		q := queue.New[int](1024)
		q.SetSampler(sampler)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]int, 0, 256)
			for {
				var ok bool
				if buf, ok = q.TakeBatch(buf[:0], 256, 0); !ok {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Offer(i)
		}
		b.StopTimer()
		close(stop)
		q.Close()
		<-done
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, queue.SamplerConfig{})
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, queue.SamplerConfig{LowWater: 0.5, HighWater: 0.9, MaxShed: 0.5})
	})
	b.Run("shedding", func(b *testing.B) {
		// Degenerate watermarks pin the sampler at full shed rate whenever
		// the buffer is non-empty: the worst-case accounting cost.
		run(b, queue.SamplerConfig{LowWater: 0, HighWater: 0, MaxShed: 0.5})
	})
}
