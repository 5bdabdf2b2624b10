package core

import (
	"sync"

	"repro/internal/queue"
)

// stage is one of the two intake rings of the paper's Figure 1 — FillUp
// (DNS records) or LookUp (flows) — sharded into lanes, with the offer-side
// partitioning and the counters. Lane l of both stages is drained by lane
// l's worker (lane.go), parking on the bell the two queues share.
//
// A lane queue moves whole batches, one lock round trip per offer or take.
// The configured capacity is the stage's total, divided evenly across lanes
// (minimum 1 each), so memory and the loss bound do not scale with the lane
// count; a burst onto one hot lane only gets that lane's share. Every lane
// measures its own fill against the same sampler watermarks, so a single
// hot lane starts shedding without waiting for the whole stage to drown.
type stage[T any] struct {
	lanes []*queue.Queue[T]
	parts sync.Pool // *partition[T]
}

// partition is the reusable per-lane staging an offered batch is split
// into in one pass, so the offer cost stays amortized per batch.
type partition[T any] struct {
	lane [][]T
}

// newStage builds a stage with one queue per bell, lane l parking its
// consumer on bells[l].
func newStage[T any](bells []*queue.Bell, capacity int, sampler queue.SamplerConfig) *stage[T] {
	lanes := len(bells)
	s := &stage[T]{lanes: make([]*queue.Queue[T], lanes)}
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

// offer enqueues every staged record on its lane, one batch per non-empty
// lane, recycles p, and returns how many records the stage took
// responsibility for. Without wait, overflow and sampler shed are counted
// by the lane's queue; with wait, a full lane blocks the caller until its
// worker frees space or the lane closes.
func (s *stage[T]) offer(p *partition[T], wait bool) int {
	accepted := 0
	for l, items := range p.lane {
		if len(items) == 0 {
			continue
		}
		accepted += s.enqueue(l, items, wait)
		p.lane[l] = items[:0]
	}
	s.parts.Put(p)
	return accepted
}

// enqueue places items on lane l: PutBatch when the caller can wait,
// OfferBatch otherwise.
func (s *stage[T]) enqueue(l int, items []T, wait bool) int {
	if wait {
		return s.lanes[l].PutBatch(items)
	}
	return s.lanes[l].OfferBatch(items)
}

// close closes every lane: producers' later offers count as dropped, a
// waiting offer gives up and counts what it had left as dropped, and the
// lane workers drain what is buffered.
func (s *stage[T]) close() {
	for _, q := range s.lanes {
		q.Close()
	}
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
