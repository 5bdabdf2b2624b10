// Package queue provides the bounded lane rings with drop accounting.
//
// FlowDNS places a ring between the stream readers and each lane worker:
// one for DNS records (FillUp) and one for flows (LookUp). Each upstream
// source "has an internal buffer to be used in case the reading speed is
// less than their actual rate. If that buffer overflows, the streams start
// to drop data." (paper §2). The evaluation's headline loss metric
// (≤0.01 % for Main, >90 % for the exact-TTL anti-benchmark) is exactly the
// drop rate these rings record, so the implementation keeps precise atomic
// counters.
//
// A Queue is a fixed ring buffer under one mutex that moves whole batches:
// OfferBatch and PutBatch copy a batch in, and Poll copies up to max
// records out, each under a single lock acquisition, so a record costs a
// copy rather than a synchronized channel operation. Each queue has exactly
// one consumer, which parks on a Bell only when its queues are empty; a
// lane's two rings share one bell, so its worker parks once for both. A
// producer rings the bell only while the consumer is parked. A PutBatch
// waiting for space waits on a condition variable that Poll signals as it
// frees slots.
package queue

import (
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a queue's counters. Every record
// offered to the queue lands in exactly one of the first three buckets, so
// Offered == Enqueued + Dropped + Sampled always holds — loss is never
// silent, whether it was accidental (Dropped) or deliberate (Sampled).
type Stats struct {
	Enqueued uint64 // records accepted into the buffer
	Dropped  uint64 // records rejected because the buffer was full
	Sampled  uint64 // records deliberately shed by the adaptive sampler
	Dequeued uint64 // records handed to the consumer
}

// Offered returns the total number of records offered to the queue.
func (s Stats) Offered() uint64 { return s.Enqueued + s.Dropped + s.Sampled }

// Lost returns the records that did not enter the buffer, accidental plus
// deliberate.
func (s Stats) Lost() uint64 { return s.Dropped + s.Sampled }

// LossRate returns (Dropped + Sampled) / Offered in [0,1]; 0 when nothing
// was offered. Sampled shed counts as loss: the operator chose the rate,
// but the records are gone all the same.
func (s Stats) LossRate() float64 {
	off := s.Offered()
	if off == 0 {
		return 0
	}
	return float64(s.Lost()) / float64(off)
}

// SamplerConfig configures adaptive overload shedding on a queue: instead
// of running the buffer into the wall and dropping whatever arrives after
// (silent, bursty, biased toward whoever offers last), the queue starts
// shedding a controlled fraction of offered records once the buffer passes
// LowWater, ramping linearly to MaxShed at HighWater. Shed records are
// counted in Stats.Sampled, so the degradation is deliberate and fully
// accounted — the paper's "buffer usage stable to avoid any loss" goal,
// inverted: when loss is unavoidable, make it measured and smooth.
type SamplerConfig struct {
	// LowWater is the buffer fill in (0,1) below which nothing is shed.
	LowWater float64
	// HighWater is the fill at which the shed rate reaches MaxShed; between
	// the watermarks the rate ramps linearly.
	HighWater float64
	// MaxShed is the shed-fraction ceiling in (0,1]. 0 disables sampling —
	// the zero SamplerConfig is a no-op.
	MaxShed float64
}

// Enabled reports whether the config sheds anything at all.
func (c SamplerConfig) Enabled() bool { return c.MaxShed > 0 }

// shedScale is the fixed-point denominator of the shed-credit accumulator:
// rates are carried as integer credits per record so the long-run shed
// proportion is exact and deterministic without any per-record floating
// point or randomness.
const shedScale = 1 << 20

// rate returns the shed fraction for a given buffer fill.
func (c SamplerConfig) rate(fill float64) float64 {
	if !c.Enabled() || fill <= c.LowWater {
		return 0
	}
	if fill >= c.HighWater || c.HighWater <= c.LowWater {
		return c.MaxShed
	}
	return c.MaxShed * (fill - c.LowWater) / (c.HighWater - c.LowWater)
}

// Bell is the doorbell the one consumer of one or more queues parks on
// while they are all empty. No wakeup is lost: a producer publishes its
// records (the queue's atomic length) and then loads parked, the consumer
// sets parked and then re-checks the lengths; Go's atomics are sequentially
// consistent, so one of them sees the other.
type Bell struct {
	parked atomic.Bool   // the consumer is between deciding to park and waking
	ch     chan struct{} // one slot: rings while a token is pending coalesce
}

// NewBell returns a bell with no consumer parked.
func NewBell() *Bell { return &Bell{ch: make(chan struct{}, 1)} }

// Ring wakes the consumer if it is parked; it never blocks or allocates.
func (b *Bell) Ring() {
	if b.parked.Load() {
		select {
		case b.ch <- struct{}{}:
		default:
		}
	}
}

// Wait parks the consumer until a ring, unless ready (called once the
// consumer counts as parked, so it may read only the queues' Len and
// Drained) reports work. Wakeups may be spurious: the consumer re-checks
// its queues.
func (b *Bell) Wait(ready func() bool) {
	b.parked.Store(true)
	if !ready() {
		<-b.ch
	}
	b.parked.Store(false)
}

// Queue is a bounded FIFO of values of type T. Producers never block on
// OfferBatch: when the buffer is full the record is dropped and the drop
// counter incremented, mirroring the stream-buffer semantics of the paper's
// data feeds. PutBatch is the blocking, lossless form for a source that
// can wait. The one consumer takes with Poll, which never waits, and parks
// on the queue's Bell while it finds nothing.
type Queue[T any] struct {
	mu      sync.Mutex
	ring    []T // fixed capacity; records sit at ring[head:head+n], wrapping
	head    int
	n       int       // records buffered
	putters int       // PutBatch calls waiting on space
	space   sync.Cond // on mu; broadcast by pop while putters > 0, and by Close
	bell    *Bell     // the consumer parks here, maybe with other queues'

	closed   atomic.Bool  // set under mu by Close; later offers count as dropped
	size     atomic.Int64 // copy of n for Len/Fill without the lock
	enqueued atomic.Uint64
	dropped  atomic.Uint64
	sampled  atomic.Uint64
	dequeued atomic.Uint64

	// sampler is the adaptive shed config; the zero value disables it. Set
	// once via SetSampler before producers start.
	sampler SamplerConfig
	// shedAcc, guarded by mu, accumulates fixed-point shed credit
	// (shedScale per record); each crossing of a shedScale boundary sheds
	// one record, making the long-run shed proportion exact under any
	// interleaving of producers.
	shedAcc uint64
}

// New returns a queue with the given buffer capacity (minimum 1) whose
// consumer parks on b, which other queues with the same consumer may
// share. The ring is allocated up front, at its full capacity.
func New[T any](capacity int, b *Bell) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue[T]{
		ring: make([]T, capacity),
		bell: b,
	}
	q.space.L = &q.mu
	return q
}

// SetSampler installs an adaptive sampler on the queue. Call before any
// producer offers.
func (q *Queue[T]) SetSampler(c SamplerConfig) { q.sampler = c }

// planShed decides how many of the next n offered records the sampler
// sheds, based on the current buffer fill, and counts them as Sampled.
// The fixed-point credit accumulator makes the decision deterministic:
// over any run the shed count is exactly floor(sum of rate·n) regardless
// of batch sizes or producer interleaving. Returns 0 when sampling is
// disabled (one branch on the hot path). Callers hold mu.
func (q *Queue[T]) planShed(n int) int {
	if !q.sampler.Enabled() {
		return 0
	}
	rate := q.sampler.rate(float64(q.n) / float64(len(q.ring)))
	if rate <= 0 {
		return 0
	}
	credit := uint64(rate * shedScale)
	before := q.shedAcc
	q.shedAcc += uint64(n) * credit
	shed := int(q.shedAcc/shedScale - before/shedScale)
	if shed > 0 {
		q.sampled.Add(uint64(shed))
	}
	return shed
}

// push copies as much of vs as fits into the ring and returns how many
// records it took. Callers hold mu.
func (q *Queue[T]) push(vs []T) int {
	k := min(len(vs), len(q.ring)-q.n)
	if k == 0 {
		return 0
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	c := copy(q.ring[tail:], vs[:k])
	copy(q.ring, vs[c:k])
	q.n += k
	q.size.Store(int64(q.n))
	return k
}

// pop appends up to max buffered records to buf in FIFO order, zeroing
// the slots it vacates so the ring keeps no references alive, and wakes
// any PutBatch waiting for space. Callers hold mu.
func (q *Queue[T]) pop(buf []T, max int) []T {
	k := min(max, q.n)
	if k <= 0 {
		return buf
	}
	end := q.head + k
	if end > len(q.ring) {
		buf = append(buf, q.ring[q.head:]...)
		clear(q.ring[q.head:])
		end -= len(q.ring)
		q.head = 0
	}
	buf = append(buf, q.ring[q.head:end]...)
	clear(q.ring[q.head:end])
	q.head = end
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n -= k
	q.size.Store(int64(q.n))
	if q.putters > 0 {
		q.space.Broadcast()
	}
	return buf
}

// OfferBatch attempts a non-blocking enqueue of every record in vs and
// returns the number the queue took responsibility for. Records that do
// not fit are dropped and counted as loss; the whole batch is copied in
// under one lock acquisition.
//
// With a sampler installed, the shed quota for the batch is taken off the
// front (batch order carries no meaning within one datagram) and those
// records count toward the return value as Sampled, not Dropped — so a
// producer's "offered − accepted" arithmetic keeps measuring accidental
// overflow only.
func (q *Queue[T]) OfferBatch(vs []T) int { return q.enqueue(vs, false) }

// PutBatch enqueues every record in vs, blocking for space as needed, and
// returns the number the queue took responsibility for (with a sampler
// installed that includes records shed into Stats.Sampled, same as
// OfferBatch). It is the backpressure form of OfferBatch: a source that
// can wait uses it to carry a stall back to its sender instead of dropping.
// A batch larger than the free space goes in in chunks as the consumer
// drains. PutBatch requires the consumer to be draining the queue until
// Close; records it has not yet placed when Close lands (or the whole
// batch, after Close) count as dropped.
func (q *Queue[T]) PutBatch(vs []T) int { return q.enqueue(vs, true) }

// enqueue is OfferBatch (block false: what does not fit is dropped) and
// PutBatch (block true: wait for space until every record is in).
func (q *Queue[T]) enqueue(vs []T, block bool) int {
	if len(vs) == 0 {
		return 0
	}
	q.mu.Lock()
	shed := 0
	if !q.closed.Load() {
		shed = q.planShed(len(vs))
	}
	vs = vs[shed:]
	accepted := 0
	for !q.closed.Load() {
		accepted += q.push(vs[accepted:])
		if accepted == len(vs) || !block {
			break
		}
		// The ring is full: make sure the consumer is draining it, then wait.
		q.bell.Ring()
		q.putters++
		q.space.Wait()
		q.putters--
	}
	q.mu.Unlock()
	if accepted > 0 {
		q.bell.Ring()
		q.enqueued.Add(uint64(accepted))
	}
	if d := len(vs) - accepted; d > 0 {
		q.dropped.Add(uint64(d))
	}
	return accepted + shed
}

// Poll appends up to max buffered records to buf without waiting; on an
// empty queue it costs one atomic load and no lock.
func (q *Queue[T]) Poll(buf []T, max int) []T {
	if q.size.Load() == 0 {
		return buf
	}
	start := len(buf)
	q.mu.Lock()
	buf = q.pop(buf, max)
	q.mu.Unlock()
	if taken := len(buf) - start; taken > 0 {
		q.dequeued.Add(uint64(taken))
	}
	return buf
}

// Close marks the queue as complete: later offers count as dropped, and
// the consumer drains the remaining records until Drained reports true.
// Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed.Store(true)
	q.space.Broadcast()
	q.mu.Unlock()
	q.bell.Ring()
}

// Len returns the number of buffered records.
func (q *Queue[T]) Len() int { return int(q.size.Load()) }

// Drained reports whether the queue is closed and empty.
func (q *Queue[T]) Drained() bool { return q.closed.Load() && q.size.Load() == 0 }

// Stats returns a snapshot of the counters.
func (q *Queue[T]) Stats() Stats {
	return Stats{
		Enqueued: q.enqueued.Load(),
		Dropped:  q.dropped.Load(),
		Sampled:  q.sampled.Load(),
		Dequeued: q.dequeued.Load(),
	}
}
