package core

import (
	"sync"
	"time"

	"repro/internal/queue"
)

// stage is one queue of the paper's Figure 1 — FillUp (DNS records), LookUp
// (flows) or Write — sharded into lanes, with the offer-side partitioning
// and the counters. The Write stage runs a worker pool on its one lane
// (start); lane l of FillUp and LookUp is drained by lane l's worker
// (lane.go), parking on the bell the two queues share.
//
// A lane queue moves whole batches, one lock round trip per offer or take.
// The configured capacity is the stage's total, divided evenly across lanes
// (minimum 1 each), so memory and the loss bound do not scale with the lane
// count; a burst onto one hot lane only gets that lane's share. Every lane
// measures its own fill against the same sampler watermarks, so a single
// hot lane starts shedding without waiting for the whole stage to drown.
type stage[T any] struct {
	comp  string // supervised component the stage's panics count against
	sup   *supervisor
	lanes []*queue.Queue[T]
	parts sync.Pool // *partition[T]
	wg    sync.WaitGroup
}

// partition is the reusable per-lane staging an offered batch is split
// into in one pass, so the offer cost stays amortized per batch.
type partition[T any] struct {
	lane [][]T
}

// newStage builds a stage with one queue per bell, lane l parking its
// consumers on bells[l].
func newStage[T any](comp string, sup *supervisor, bells []*queue.Bell, capacity int, sampler queue.SamplerConfig) *stage[T] {
	lanes := len(bells)
	s := &stage[T]{comp: comp, sup: sup, lanes: make([]*queue.Queue[T], lanes)}
	for i, b := range bells {
		s.lanes[i] = queue.NewWithBell[T](capacity/lanes, b)
		s.lanes[i].SetSampler(sampler)
	}
	s.parts.New = func() any { return &partition[T]{lane: make([][]T, lanes)} }
	return s
}

// partition returns empty pooled staging: the caller appends each record
// to p.lane[l] for the lane l it routes to, then hands p to offer.
func (s *stage[T]) partition() *partition[T] { return s.parts.Get().(*partition[T]) }

// offer enqueues every staged record on its lane without blocking, one
// OfferBatch per non-empty lane — overflow and sampler shed are counted by
// the lane's queue — recycles p, and returns how many records the stage
// took responsibility for.
func (s *stage[T]) offer(p *partition[T]) int {
	accepted := 0
	for l, items := range p.lane {
		if len(items) == 0 {
			continue
		}
		accepted += s.lanes[l].OfferBatch(items)
		p.lane[l] = items[:0]
	}
	s.parts.Put(p)
	return accepted
}

// start launches workers consumers on every lane, each running body on the
// batches it takes: up to max records per queue round trip, lingering up to
// linger for a partial batch to fill (0 never waits past the first record).
// The workers on one lane share its bell: a worker parks only while the
// lane is empty, and one that leaves records behind wakes the next. Workers
// run supervised: a panic escaping body is counted against the stage's
// component and the loop restarted with backoff; the loop ends when the
// lane is closed and empty.
func (s *stage[T]) start(workers, max int, linger time.Duration, body func(lane int, h *compHealth, batch []T)) {
	h := s.sup.comp(s.comp)
	for l, q := range s.lanes {
		for range workers {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				batch := make([]T, 0, max)
				s.sup.superviseLoop(h, func() {
					for {
						var ok bool
						if batch, ok = q.TakeBatch(batch[:0], max, linger); !ok {
							return
						}
						body(l, h, batch)
					}
				})
			}()
		}
	}
}

// close closes every lane: producers' later offers count as dropped, and
// consumers drain what is buffered.
func (s *stage[T]) close() {
	for _, q := range s.lanes {
		q.Close()
	}
}

// drain closes every lane and waits for the stage's own workers to empty
// them.
func (s *stage[T]) drain() {
	s.close()
	s.wg.Wait()
}

// stats aggregates the lane queues' counters; because each lane keeps
// Offered == Enqueued + Dropped + Sampled, so does the sum.
func (s *stage[T]) stats() queue.Stats {
	var sum queue.Stats
	for _, q := range s.lanes {
		st := q.Stats()
		sum.Enqueued += st.Enqueued
		sum.Dropped += st.Dropped
		sum.Sampled += st.Sampled
		sum.Dequeued += st.Dequeued
	}
	return sum
}

// depths reports each lane's queue occupancy.
func (s *stage[T]) depths() []int {
	out := make([]int, len(s.lanes))
	for i, q := range s.lanes {
		out[i] = q.Len()
	}
	return out
}

// depth is the stage's total occupancy.
func (s *stage[T]) depth() int {
	n := 0
	for _, q := range s.lanes {
		n += q.Len()
	}
	return n
}
