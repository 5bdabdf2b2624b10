package core

import "repro/internal/stream"

// A lane is the unit of parallelism: the paper's "multiple FillUp and
// LookUp workers" are one supervised goroutine per lane that does both.
// Lane l owns the rings c.dns.lanes[l] and c.flows.lanes[l] (on bell
// c.bells[l]) and interner c.interners[l]; routing by the store's key hash
// makes it fill and read IP-NAME split slice l. LookupBoth's destination
// fallback and the NAME-CNAME store are shared across lanes.
//
// Each round takes a flow batch, then a DNS batch, and fills before it
// correlates: a DNS record taken before a flow is always visible to it, and
// so is one offered before it while the lane's DNS backlog is within one
// batch. No order is promised across lanes.

// startLanes launches one worker per lane; contained panics count against
// fill or look by the step that panicked.
func (c *Correlator) startLanes() {
	fillH, lookH := c.sup.comp(c.dns.comp), c.sup.comp(c.flows.comp)
	for l := range c.bells {
		c.lanesWG.Add(1)
		go c.runLane(l, fillH, lookH)
	}
}

// runLane is lane l's worker loop. It parks on the lane's bell only when
// both rings are empty and returns once both are closed and drained. A
// panic escaping a round counts against look and restarts the loop.
func (c *Correlator) runLane(l int, fillH, lookH *compHealth) {
	defer c.lanesWG.Done()
	dnsQ, flowQ, bell := c.dns.lanes[l], c.flows.lanes[l], c.bells[l]
	in, fill := c.interners[l], new(fillBuf)
	recs := make([]stream.DNSRecord, 0, ingestBatchSize)
	flows := make([]flowEntry, 0, ingestBatchSize)
	out := make([]CorrelatedFlow, 0, ingestBatchSize)
	var tally lookTally
	drained := func() bool { return dnsQ.Drained() && flowQ.Drained() }
	ready := func() bool { return dnsQ.Len() > 0 || flowQ.Len() > 0 || drained() }
	c.sup.superviseLoop(lookH, func() {
		for {
			flows = flowQ.Poll(flows[:0], ingestBatchSize)
			recs = dnsQ.Poll(recs[:0], ingestBatchSize)
			if len(recs) > 0 {
				c.ingestGuarded(fillH, recs, in, fill)
			}
			if len(flows) > 0 {
				out = c.lookBatch(lookH, out[:0], flows, &tally)
				c.write.lanes[0].PutBatch(out)
			}
			if len(recs) == 0 && len(flows) == 0 {
				if drained() {
					return
				}
				bell.Wait(ready)
			}
		}
	})
}

// lookBatch is the LookUp step: correlate every flow into out. The caller
// hands out to the Write stage with blocking PutBatch: a flow accepted into
// a lane must reach the sink (loss is accounted only at intake), and a full
// lane at cancellation backpressures instead of overflowing the write queue.
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
