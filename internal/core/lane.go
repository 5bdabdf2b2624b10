package core

import (
	"context"

	"repro/internal/queue"
	"repro/internal/stream"
)

// A lane is the unit of parallelism and the whole pipeline: the paper's
// "multiple FillUp and LookUp workers", and the Write workers behind them,
// are one supervised goroutine per lane that does all three. Lane l owns a
// DNS ring and a flow ring, the bell they share and an interner; routing by
// the store's key hash makes it fill and read IP-NAME split slice l.
// LookupBoth's destination fallback, the NAME-CNAME store and the sink are
// shared across lanes.
//
// Each round takes a flow batch, then a DNS batch, fills before it
// correlates, and hands the correlated batch to the sink: a DNS record
// taken before a flow is always visible to it, and so is one offered before
// it while the lane's DNS backlog is within one batch. No order is promised
// across lanes.
type lane struct {
	dns   *queue.Queue[stream.DNSRecord] // FillUp ring
	flows *queue.Queue[flowEntry]        // LookUp ring
	bell  *queue.Bell                    // the lane worker parks here
	in    *interner
}

// newLanes builds n lanes. The ring capacities are totals divided evenly
// (minimum 1 each), so memory and the loss bound do not scale with the lane
// count; a burst onto one hot lane only gets that lane's share. Every ring
// measures its own fill against the same sampler watermarks, so a single
// hot lane starts shedding without waiting for the others to drown.
func newLanes(n, dnsCap, flowCap int, sampler queue.SamplerConfig) []lane {
	lanes := make([]lane, n)
	for i := range lanes {
		bell := queue.NewBell()
		lanes[i] = lane{
			dns:   queue.New[stream.DNSRecord](dnsCap/n, bell),
			flows: queue.New[flowEntry](flowCap/n, bell),
			bell:  bell,
			in:    newInterner(defaultInternCap),
		}
		lanes[i].dns.SetSampler(sampler)
		lanes[i].flows.SetSampler(sampler)
	}
	return lanes
}

// close closes both rings: producers' later offers count as dropped, a
// waiting PutDNSBatch gives up and counts what it had left as dropped, and
// the lane worker drains what is buffered.
func (ln *lane) close() {
	ln.dns.Close()
	ln.flows.Close()
}

// drained reports whether both rings are closed and empty.
func (ln *lane) drained() bool { return ln.dns.Drained() && ln.flows.Drained() }

// partition is the reusable per-lane staging an offered batch is split
// into in one pass, so the offer cost stays amortized per batch.
type partition[T any] struct {
	lane [][]T
}

// newPartition is the New func of a pool of partitions over n lanes.
func newPartition[T any](n int) func() any {
	return func() any { return &partition[T]{lane: make([][]T, n)} }
}

// offer enqueues every staged record on its lane's ring (ring picks the DNS
// or the flow ring), one batch per non-empty lane, and empties p for reuse.
// It returns how many records the rings took responsibility for. Without
// wait, overflow and sampler shed are counted by the ring; with wait, a
// full ring blocks the caller until its lane frees space or the ring
// closes.
func (p *partition[T]) offer(lanes []lane, ring func(*lane) *queue.Queue[T], wait bool) int {
	accepted := 0
	for l, items := range p.lane {
		if len(items) == 0 {
			continue
		}
		accepted += enqueue(ring(&lanes[l]), items, wait)
		p.lane[l] = items[:0]
	}
	return accepted
}

// dnsRing and flowRing are the ring selectors partition.offer takes.
func dnsRing(ln *lane) *queue.Queue[stream.DNSRecord] { return ln.dns }
func flowRing(ln *lane) *queue.Queue[flowEntry]       { return ln.flows }

// enqueue places items on q: PutBatch when the caller can wait, OfferBatch
// otherwise.
func enqueue[T any](q *queue.Queue[T], items []T, wait bool) int {
	if wait {
		return q.PutBatch(items)
	}
	return q.OfferBatch(items)
}

// laneHealth is the supervised components a lane's steps count against.
type laneHealth struct{ fill, look, write *compHealth }

// startLanes launches one worker per lane; contained panics count against
// fill, look or write by the step that panicked. Sink writes run under ctx.
func (c *Correlator) startLanes(ctx context.Context) {
	h := laneHealth{c.sup.comp(compFill), c.sup.comp(compLook), c.sup.comp(compWrite)}
	for l := range c.lanes {
		c.lanesWG.Add(1)
		go c.runLane(ctx, &c.lanes[l], h)
	}
}

// runLane is ln's worker loop. It parks on the lane's bell only when
// both rings are empty and returns once both are closed and drained. A
// panic escaping a round counts against look and restarts the loop.
//
// A lane is busy from the round that finds work to the round that finds
// none; the last lane to go idle flushes the sink (laneIdle), so output
// never waits in the sink's buffer while the pipeline has nothing to do,
// and under saturation the sink's own buffer decides when to write.
func (c *Correlator) runLane(ctx context.Context, ln *lane, h laneHealth) {
	defer c.lanesWG.Done()
	fill := new(fillBuf)
	recs := make([]stream.DNSRecord, 0, ingestBatchSize)
	flows := make([]flowEntry, 0, ingestBatchSize)
	out := make([]CorrelatedFlow, 0, ingestBatchSize)
	var tally lookTally
	busy := false // outlives a restarted loop, so busyLanes stays exact
	ready := func() bool { return ln.dns.Len() > 0 || ln.flows.Len() > 0 || ln.drained() }
	c.sup.superviseLoop(h.look, func() {
		for {
			flows = ln.flows.Poll(flows[:0], ingestBatchSize)
			recs = ln.dns.Poll(recs[:0], ingestBatchSize)
			if len(recs) == 0 && len(flows) == 0 {
				if busy {
					busy = false
					c.laneIdle(h.write)
				}
				if ln.drained() {
					return
				}
				ln.bell.Wait(ready)
				continue
			}
			if !busy {
				busy = true
				c.busyLanes.Add(1)
			}
			if len(recs) > 0 {
				c.ingestGuarded(h.fill, recs, ln.in, fill)
			}
			if len(flows) > 0 {
				out = c.lookBatch(h.look, out[:0], flows, &tally)
				c.writeBatch(ctx, h.write, out)
			}
		}
	})
}

// laneIdle marks one lane idle. The lane that takes the busy count to 0
// flushes the sink if anything was written since the last flush.
func (c *Correlator) laneIdle(h *compHealth) {
	if c.busyLanes.Add(-1) != 0 || !c.unflushed.Load() || !c.unflushed.Swap(false) {
		return
	}
	if c.sinkErr.Load() != nil {
		return // sink already failed: the drain's Flush is the last call
	}
	if err := guardErr(h, c.sink.Flush); err != nil {
		c.failSink(err)
	}
}

// lookBatch is the LookUp step: correlate every flow into out, which the
// caller hands to the sink. A flow accepted into a lane reaches the sink
// unless its correlation panics (loss is accounted only at intake, and
// poisoned records in Stats.Poisoned).
func (c *Correlator) lookBatch(h *compHealth, out []CorrelatedFlow, batch []flowEntry, tally *lookTally) []CorrelatedFlow {
	var poisoned uint64
	for i := range batch {
		out = append(out, CorrelatedFlow{})
		cf := &out[len(out)-1]
		// A record whose correlation panics drops that one output slot —
		// not the batch, not the worker.
		if !c.correlateGuarded(h, cf, &batch[i].fr, tally) {
			out = out[:len(out)-1]
			poisoned++
			continue
		}
		cf.EnqueuedAt = batch[i].at
	}
	tally.flush(&c.stats)
	if poisoned != 0 {
		c.stats.poisoned.Add(poisoned)
	}
	return out
}
