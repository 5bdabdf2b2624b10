package queue

import (
	"math"
	"sync"
	"testing"
)

func TestSamplerDisabledByDefault(t *testing.T) {
	q := newQ[int](4)
	if q.sampler.Enabled() {
		t.Fatal("zero SamplerConfig reports Enabled")
	}
	for i := 0; i < 4; i++ {
		if !offer(q, i) {
			t.Fatalf("offer(%d) failed with space available", i)
		}
	}
	st := q.Stats()
	if st.Sampled != 0 {
		t.Fatalf("Sampled = %d without a sampler; want 0", st.Sampled)
	}
	if st.Offered() != 4 {
		t.Fatalf("Offered = %d, want 4", st.Offered())
	}
}

func TestSamplerRateRamp(t *testing.T) {
	c := SamplerConfig{LowWater: 0.5, HighWater: 0.9, MaxShed: 0.8}
	cases := []struct {
		fill, want float64
	}{
		{0, 0},
		{0.5, 0},   // at LowWater: nothing shed yet
		{0.7, 0.4}, // midpoint of the ramp
		{0.9, 0.8}, // at HighWater: full MaxShed
		{1.0, 0.8}, // beyond HighWater: clamped
	}
	for _, tc := range cases {
		if got := c.rate(tc.fill); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("rate(%v) = %v, want %v", tc.fill, got, tc.want)
		}
	}
	// Degenerate watermarks (High <= Low) step straight to MaxShed.
	step := SamplerConfig{LowWater: 0.5, HighWater: 0.5, MaxShed: 0.25}
	if got := step.rate(0.6); got != 0.25 {
		t.Errorf("degenerate rate(0.6) = %v, want 0.25", got)
	}
	if got := step.rate(0.4); got != 0 {
		t.Errorf("degenerate rate(0.4) = %v, want 0", got)
	}
}

// Above HighWater the credit accumulator must shed exactly MaxShed of the
// offered records over any run, regardless of how the offers are batched.
func TestSamplerDeterministicProportion(t *testing.T) {
	const n = 10000
	for _, batch := range []int{1, 3, 7, 64, 333} {
		q := newQ[int](4)
		q.SetSampler(SamplerConfig{LowWater: 0.1, HighWater: 0.2, MaxShed: 0.25})
		// Pin the queue above HighWater so the rate is constant MaxShed.
		offer(q, 0)
		offer(q, 0)
		offer(q, 0)
		start := q.Stats()
		vs := make([]int, batch)
		offered := 0
		for offered < n {
			k := batch
			if n-offered < k {
				k = n - offered
			}
			q.OfferBatch(vs[:k])
			offered += k
		}
		st := q.Stats()
		sampled := st.Sampled - start.Sampled
		want := uint64(n / 4)
		if sampled != want {
			t.Errorf("batch=%d: sampled %d of %d, want exactly %d", batch, sampled, n, want)
		}
	}
}

// Sampled records count as accepted from the producer's point of view:
// offer and put return values include them, so producer-side "offered −
// accepted" keeps measuring accidental overflow only.
func TestSampledCountsAsAccepted(t *testing.T) {
	q := newQ[int](2)
	q.SetSampler(SamplerConfig{LowWater: 0, HighWater: 0, MaxShed: 1})
	offer(q, 1) // fill > 0 after this; MaxShed=1 with degenerate watermarks sheds everything above fill 0
	for i := 0; i < 10; i++ {
		if !offer(q, i) {
			t.Fatalf("offer(%d) = false for a sampled record; want true", i)
		}
	}
	vs := make([]int, 5)
	if got := q.OfferBatch(vs); got != 5 {
		t.Fatalf("OfferBatch = %d, want 5 (sampled counts as accepted)", got)
	}
	if got := q.PutBatch(vs); got != 5 {
		t.Fatalf("PutBatch = %d, want 5 (sampled counts as accepted)", got)
	}
	st := q.Stats()
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d; deliberate shed must not count as drop", st.Dropped)
	}
	if st.Sampled != 20 {
		t.Fatalf("Sampled = %d, want 20", st.Sampled)
	}
	if st.Offered() != st.Enqueued+st.Dropped+st.Sampled {
		t.Fatalf("invariant broken: %+v", st)
	}
}

// The accounting invariant must hold with concurrent producers hammering a
// tiny queue through every producer entry point while the consumer drains.
func TestSamplerInvariantConcurrent(t *testing.T) {
	q := newQ[int](8)
	q.SetSampler(SamplerConfig{LowWater: 0.25, HighWater: 0.75, MaxShed: 0.5})

	const producers = 8
	const perProducer = 5000
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		buf := make([]int, 0, 16)
		for {
			var ok bool
			if buf, ok = takeBatch(q, buf[:0], 16); !ok {
				return
			}
		}
	}()

	var produced sync.WaitGroup
	produced.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer produced.Done()
			vs := make([]int, 4)
			for i := 0; i < perProducer; i++ {
				switch i % 3 {
				case 0:
					offer(q, i)
				case 1:
					q.OfferBatch(vs)
				default:
					q.PutBatch(vs[:2])
				}
			}
		}(p)
	}
	produced.Wait()
	q.Close()
	<-consumed

	st := q.Stats()
	var offered uint64
	for i := 0; i < perProducer; i++ {
		switch i % 3 {
		case 0:
			offered += 1
		case 1:
			offered += 4
		default:
			offered += 2
		}
	}
	offered *= producers
	if st.Offered() != offered {
		t.Fatalf("Offered = %d, want %d (Enqueued+Dropped+Sampled must cover every record): %+v",
			st.Offered(), offered, st)
	}
	if st.Dequeued != st.Enqueued {
		t.Fatalf("drained queue: Dequeued %d != Enqueued %d", st.Dequeued, st.Enqueued)
	}
}

func TestSamplerBelowLowWaterShedsNothing(t *testing.T) {
	q := newQ[int](100)
	q.SetSampler(SamplerConfig{LowWater: 0.5, HighWater: 0.9, MaxShed: 1})
	for i := 0; i < 40; i++ { // stays below the 50-record low watermark
		if !offer(q, i) {
			t.Fatalf("offer(%d) failed below LowWater", i)
		}
	}
	if st := q.Stats(); st.Sampled != 0 || st.Enqueued != 40 {
		t.Fatalf("below LowWater: %+v; want 40 enqueued, 0 sampled", st)
	}
}
