package core

import (
	"testing"

	"repro/internal/queue"
)

// newBells returns n fresh bells, one per lane.
func newBells(n int) []*queue.Bell {
	bells := make([]*queue.Bell, n)
	for i := range bells {
		bells[i] = queue.NewBell()
	}
	return bells
}

// offerByMod partitions items onto lanes by value modulo the lane count.
func offerByMod(s *stage[int], items []int) int {
	p := s.partition()
	for _, v := range items {
		l := v % len(s.lanes)
		p.lane[l] = append(p.lane[l], v)
	}
	return s.offer(p, false)
}

// TestStageLedgerSumsOverLanes overloads a sampled stage no worker drains,
// so every lane enqueues, sheds and drops, and requires the aggregated
// counters to account for every offered record.
func TestStageLedgerSumsOverLanes(t *testing.T) {
	sampler := queue.SamplerConfig{LowWater: 0.25, HighWater: 0.75, MaxShed: 0.5}
	s := newStage[int](newBells(3), 48, sampler) // 16 per lane
	const offered = 600
	accepted := 0
	for base := 0; base < offered; base += 20 {
		batch := make([]int, 20)
		for i := range batch {
			batch[i] = base + i
		}
		accepted += offerByMod(s, batch)
	}
	st := s.stats()
	if st.Offered() != offered || st.Enqueued+st.Dropped+st.Sampled != offered {
		t.Fatalf("ledger: offered %d != enqueued %d + dropped %d + sampled %d (sent %d)",
			st.Offered(), st.Enqueued, st.Dropped, st.Sampled, offered)
	}
	if st.Enqueued != 48 || st.Sampled == 0 || st.Dropped == 0 {
		t.Fatalf("want full lanes and both loss kinds exercised, got %+v", st)
	}
	if uint64(accepted) != st.Enqueued+st.Sampled {
		t.Fatalf("offer returned %d accepted, queues say %d", accepted, st.Enqueued+st.Sampled)
	}
	var perLane uint64
	for _, q := range s.lanes {
		ls := q.Stats()
		if ls.Offered() != ls.Enqueued+ls.Dropped+ls.Sampled {
			t.Fatalf("lane ledger broken: %+v", ls)
		}
		perLane += ls.Offered()
	}
	if perLane != offered {
		t.Fatalf("lanes saw %d records, want %d", perLane, offered)
	}
	if got := s.depth(); got != 48 {
		t.Fatalf("depth = %d, want 48", got)
	}
	for l, d := range s.depths() {
		if d != 16 {
			t.Fatalf("lane %d depth = %d, want 16", l, d)
		}
	}
}
