package core

import (
	"context"

	"repro/internal/stream"
)

// A lane is the unit of parallelism and the whole pipeline: the paper's
// "multiple FillUp and LookUp workers", and the Write workers behind them,
// are one supervised goroutine per lane that does all three. Lane l owns
// the rings c.dns.lanes[l] and c.flows.lanes[l] (on bell c.bells[l]) and
// interner c.interners[l]; routing by the store's key hash makes it fill
// and read IP-NAME split slice l. LookupBoth's destination fallback, the
// NAME-CNAME store and the sink are shared across lanes.
//
// Each round takes a flow batch, then a DNS batch, fills before it
// correlates, and hands the correlated batch to the sink: a DNS record
// taken before a flow is always visible to it, and so is one offered before
// it while the lane's DNS backlog is within one batch. No order is promised
// across lanes.

// laneHealth is the supervised components a lane's steps count against.
type laneHealth struct{ fill, look, write *compHealth }

// startLanes launches one worker per lane; contained panics count against
// fill, look or write by the step that panicked. Sink writes run under ctx.
func (c *Correlator) startLanes(ctx context.Context) {
	h := laneHealth{c.sup.comp(compFill), c.sup.comp(compLook), c.sup.comp(compWrite)}
	for l := range c.bells {
		c.lanesWG.Add(1)
		go c.runLane(ctx, l, h)
	}
}

// runLane is lane l's worker loop. It parks on the lane's bell only when
// both rings are empty and returns once both are closed and drained. A
// panic escaping a round counts against look and restarts the loop.
//
// A lane is busy from the round that finds work to the round that finds
// none; the last lane to go idle flushes the sink (laneIdle), so output
// never waits in the sink's buffer while the pipeline has nothing to do,
// and under saturation the sink's own buffer decides when to write.
func (c *Correlator) runLane(ctx context.Context, l int, h laneHealth) {
	defer c.lanesWG.Done()
	dnsQ, flowQ, bell := c.dns.lanes[l], c.flows.lanes[l], c.bells[l]
	in, fill := c.interners[l], new(fillBuf)
	recs := make([]stream.DNSRecord, 0, ingestBatchSize)
	flows := make([]flowEntry, 0, ingestBatchSize)
	out := make([]CorrelatedFlow, 0, ingestBatchSize)
	var tally lookTally
	busy := false // outlives a restarted loop, so busyLanes stays exact
	drained := func() bool { return dnsQ.Drained() && flowQ.Drained() }
	ready := func() bool { return dnsQ.Len() > 0 || flowQ.Len() > 0 || drained() }
	c.sup.superviseLoop(h.look, func() {
		for {
			flows = flowQ.Poll(flows[:0], ingestBatchSize)
			recs = dnsQ.Poll(recs[:0], ingestBatchSize)
			if len(recs) == 0 && len(flows) == 0 {
				if busy {
					busy = false
					c.laneIdle(h.write)
				}
				if drained() {
					return
				}
				bell.Wait(ready)
				continue
			}
			if !busy {
				busy = true
				c.busyLanes.Add(1)
			}
			if len(recs) > 0 {
				c.ingestGuarded(h.fill, recs, in, fill)
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
