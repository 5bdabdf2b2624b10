package core

import (
	"sync"
	"time"

	"repro/internal/queue"
)

// stage is one box of the paper's Figure 1: a bounded queue drained by a
// pool of workers. FillUp, LookUp and Write are three values of this type;
// the only code a stage does not share with the others is the body its
// workers run on each batch they take (see Correlator.fillWorker,
// lookWorker, writeBatch).
//
// A stage is sharded into lanes, each an independent queue with its own
// workers, so records the caller partitions onto different lanes never
// contend on one queue. A lane queue moves whole batches: one offer and one
// take each cost a single lock round trip however many records they carry,
// so the stages hand records on in the batches their producers built. The
// stage's configured capacity is the total buffer, divided evenly across
// lanes (minimum 1 each): the memory footprint and the configured loss
// bound do not scale with the lane count. The flip side is that a burst
// onto one hot lane only gets that lane's share — raise the capacity (and
// watch depths) for skewed traffic. Every lane measures its own fill
// against the same sampler watermarks, so a single hot lane starts
// shedding without waiting for the whole stage to drown.
type stage[T any] struct {
	comp    string // supervised component the workers' panics count against
	sup     *supervisor
	lanes   []*queue.Queue[T]
	workers int       // configured total; see workersOn
	parts   sync.Pool // *partition[T]
	wg      sync.WaitGroup
}

// partition is the reusable per-lane staging an offered batch is split
// into in one pass, so the offer cost stays amortized per batch.
type partition[T any] struct {
	lane [][]T
}

func newStage[T any](comp string, sup *supervisor, lanes, capacity, workers int, sampler queue.SamplerConfig) *stage[T] {
	s := &stage[T]{comp: comp, sup: sup, lanes: make([]*queue.Queue[T], lanes), workers: workers}
	for i := range s.lanes {
		s.lanes[i] = queue.New[T](capacity / lanes)
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

// workersOn returns how many workers drain lane l: the configured total
// split evenly with the remainder going to the first lanes, and never
// fewer than one — a lane without a worker would never drain, so with
// fewer workers than lanes the effective total is the lane count.
func (s *stage[T]) workersOn(l int) int {
	n := s.workers / len(s.lanes)
	if n < 1 {
		return 1
	}
	if l < s.workers%len(s.lanes) {
		n++
	}
	return n
}

// start launches the stage's workers. newWorker runs once per worker, with
// the lane it drains and the health block its contained panics count
// against, and returns that worker's batch body — a closure over whatever
// private scratch the worker keeps between batches. A worker takes up to
// max records per queue round trip (lingering up to linger for a partial
// batch to fill; 0 never waits past the first record), so the queue lock,
// the body's clock reads and its stats flushes amortize per batch. Several
// workers on one lane share its doorbell: a worker parks only while the
// lane is empty, and one that leaves records behind wakes the next. Workers
// run supervised: a panic escaping the body is counted and the loop
// restarted with backoff; the loop ends when the lane is closed and empty.
func (s *stage[T]) start(max int, linger time.Duration, newWorker func(lane int, h *compHealth) func(batch []T)) {
	h := s.sup.comp(s.comp)
	for l, q := range s.lanes {
		for i := s.workersOn(l); i > 0; i-- {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				body := newWorker(l, h)
				batch := make([]T, 0, max)
				s.sup.superviseLoop(h, func() {
					for {
						var ok bool
						if batch, ok = q.TakeBatch(batch[:0], max, linger); !ok {
							return
						}
						body(batch)
					}
				})
			}()
		}
	}
}

// drain closes every lane and waits for the workers to empty them.
func (s *stage[T]) drain() {
	for _, q := range s.lanes {
		q.Close()
	}
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
