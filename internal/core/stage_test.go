package core

import (
	"sync"
	"testing"
	"time"

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

func testSupervisor() *supervisor {
	return &supervisor{backoffMin: time.Millisecond, backoffMax: time.Millisecond}
}

// offerByMod partitions items onto lanes by value modulo the lane count.
func offerByMod(s *stage[int], items []int) int {
	p := s.partition()
	for _, v := range items {
		l := v % len(s.lanes)
		p.lane[l] = append(p.lane[l], v)
	}
	return s.offer(p)
}

// TestStageLedgerSumsOverLanes overloads a sampled stage whose workers have
// not started, so every lane enqueues, sheds and drops, and requires the
// aggregated counters to account for every offered record.
func TestStageLedgerSumsOverLanes(t *testing.T) {
	sampler := queue.SamplerConfig{LowWater: 0.25, HighWater: 0.75, MaxShed: 0.5}
	s := newStage[int]("test", testSupervisor(), newBells(3), 48, sampler) // 16 per lane
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

// TestStageDrainWithFullLanes closes a stage whose lanes are all full and
// requires every accepted record to reach a worker exactly once.
func TestStageDrainWithFullLanes(t *testing.T) {
	const lanes, perLane = 4, 32
	s := newStage[int]("test", testSupervisor(), newBells(lanes), lanes*perLane, queue.SamplerConfig{})
	items := make([]int, 2*lanes*perLane) // twice what fits: the tail drops
	for i := range items {
		items[i] = i
	}
	if got := offerByMod(s, items); got != lanes*perLane {
		t.Fatalf("accepted %d, want %d", got, lanes*perLane)
	}
	var mu sync.Mutex
	seen := map[int]int{}
	s.start(2, 5, 0, func(lane int, _ *compHealth, batch []int) {
		mu.Lock()
		defer mu.Unlock()
		for _, v := range batch {
			if v%lanes != lane {
				t.Errorf("record %d taken by lane %d's worker", v, lane)
			}
			seen[v]++
		}
	})
	s.drain()
	// With no consumer running, each lane kept the first perLane records
	// routed to it: exactly the values below lanes*perLane.
	if len(seen) != lanes*perLane {
		t.Fatalf("delivered %d distinct records, want %d", len(seen), lanes*perLane)
	}
	for v, n := range seen {
		if n != 1 || v >= lanes*perLane {
			t.Fatalf("record %d delivered %d times", v, n)
		}
	}
	st := s.stats()
	if st.Dequeued != st.Enqueued || st.Dropped != lanes*perLane || s.depth() != 0 {
		t.Fatalf("after drain: %+v, depth %d", st, s.depth())
	}
	if offerByMod(s, []int{1, 2, 3}) != 0 {
		t.Fatal("a drained stage accepted records")
	}
}

// TestStageWorkerRestartsAfterPanic: a panic escaping a batch body is
// counted and the worker loop restarted; later batches still drain.
func TestStageWorkerRestartsAfterPanic(t *testing.T) {
	sup := testSupervisor()
	s := newStage[int]("test", sup, newBells(1), 16, queue.SamplerConfig{})
	var mu sync.Mutex
	delivered := 0
	s.start(1, 1, 0, func(_ int, _ *compHealth, batch []int) {
		if batch[0] == 0 {
			panic("poisoned batch")
		}
		mu.Lock()
		delivered += len(batch)
		mu.Unlock()
	})
	offerByMod(s, []int{0, 1, 2, 3})
	s.drain()
	if delivered != 3 {
		t.Fatalf("delivered %d records after the panic, want 3", delivered)
	}
	if h := sup.comp("test"); h.panics.Load() != 1 || h.restarts.Load() != 1 {
		t.Fatalf("panics=%d restarts=%d, want 1/1", h.panics.Load(), h.restarts.Load())
	}
}
