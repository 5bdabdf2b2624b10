package core

import (
	"sync/atomic"

	"repro/internal/queue"
)

// maxChainBucket is the last chain-length histogram bucket; the limit is 6
// so bucket 7 collects anything at the cap.
const maxChainBucket = 8

// statsCounters is the live, atomically updated counter block. The eight
// counters every LookUp flush may add to come first, filling one 64-byte
// cache line when the block starts one (it is the Correlator's first
// field), and the chain histogram fills the next: concurrent CorrelateFlow
// callers then contend on two lines rather than on however many the
// surrounding fields happen to spread them over.
type statsCounters struct {
	flows           atomic.Uint64
	flowBytes       atomic.Uint64
	correlated      atomic.Uint64
	correlatedBytes atomic.Uint64
	misses          atomic.Uint64
	hitActive       atomic.Uint64
	hitInactive     atomic.Uint64
	hitLong         atomic.Uint64

	chain [maxChainBucket]atomic.Uint64

	flowInvalid atomic.Uint64
	memoized    atomic.Uint64

	dnsRecords atomic.Uint64
	dnsInvalid atomic.Uint64

	written       atomic.Uint64
	maxWriteDelay atomic.Int64 // ns

	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64

	// poisoned counts records dropped by panic containment: the batch item
	// whose processing panicked, sacrificed so the worker (and the process)
	// survive.
	poisoned atomic.Uint64
}

// lookTally is a lane worker's batch-local LookUp counter block. Workers
// accumulate per-flow counts here and flush once per batch, amortizing the
// shared atomic updates (and their cache-line traffic) over the batch —
// one of the two costs, with key allocation, that the sharded-lane design
// removes from the per-flow hit path.
type lookTally struct {
	flows       uint64
	flowInvalid uint64
	flowBytes   uint64

	correlated      uint64
	correlatedBytes uint64
	misses          uint64

	hits     [TierLong + 1]uint64
	memoized uint64

	chain [maxChainBucket]uint64
}

// flush adds the tally to the shared counters and zeroes it. Zero fields
// cost nothing.
func (t *lookTally) flush(s *statsCounters) {
	if t.flows != 0 {
		s.flows.Add(t.flows)
	}
	if t.flowInvalid != 0 {
		s.flowInvalid.Add(t.flowInvalid)
	}
	if t.flowBytes != 0 {
		s.flowBytes.Add(t.flowBytes)
	}
	if t.correlated != 0 {
		s.correlated.Add(t.correlated)
	}
	if t.correlatedBytes != 0 {
		s.correlatedBytes.Add(t.correlatedBytes)
	}
	if t.misses != 0 {
		s.misses.Add(t.misses)
	}
	if t.hits[TierActive] != 0 {
		s.hitActive.Add(t.hits[TierActive])
	}
	if t.hits[TierInactive] != 0 {
		s.hitInactive.Add(t.hits[TierInactive])
	}
	if t.hits[TierLong] != 0 {
		s.hitLong.Add(t.hits[TierLong])
	}
	if t.memoized != 0 {
		s.memoized.Add(t.memoized)
	}
	for i := range t.chain {
		if t.chain[i] != 0 {
			s.chain[i].Add(t.chain[i])
		}
	}
	*t = lookTally{}
}

// Stats is a point-in-time snapshot of everything the evaluation section
// reports: correlation rate (by bytes, the paper's headline metric), loss
// rates on every queue, lookup tier hits, CNAME chain distribution, state
// sizes, rotation counts, and the write delay.
type Stats struct {
	DNSRecords uint64 // valid DNS records filled up
	DNSInvalid uint64 // records rejected by the §3.2 filter

	Flows       uint64 // flow records processed by LookUp
	FlowInvalid uint64
	FlowBytes   uint64 // total traffic volume seen

	Correlated      uint64 // flows with a resolved name
	CorrelatedBytes uint64 // traffic volume with a resolved name
	Misses          uint64

	HitActive   uint64
	HitInactive uint64
	HitLong     uint64

	Memoized uint64
	Written  uint64

	// MaxWriteDelayNs is the worst observed flow latency from LookUp-queue
	// entry to the sink write (the paper's write-delay metric: "the delay
	// to write the correlated data", bounded at 45 s in the deployment).
	MaxWriteDelayNs int64

	ChainHist [maxChainBucket]uint64 // CNAME hops taken per correlated flow

	IPNameEntries    int
	NameCnameEntries int

	IPNameRotations    uint64
	NameCnameRotations uint64
	Sweeps             uint64 // exact-TTL mode only
	SweptEntries       uint64

	// Checkpoints counts successful snapshot writes this run (periodic plus
	// the final one); CheckpointErrors counts failed attempts.
	// RestoredEntries / RestoredExpired report New's restore-on-boot: how
	// many entries the checkpoint contributed and how many it dropped as
	// already expired.
	Checkpoints      uint64
	CheckpointErrors uint64
	RestoredEntries  uint64
	RestoredExpired  uint64

	// Poisoned counts records dropped by panic containment (the poisoned
	// batch item, not its batch and not the process). Panics and Restarts
	// total the per-component supervision counters in Supervised.
	Poisoned uint64
	Panics   uint64
	Restarts uint64
	// Supervised is the per-component breakdown (lane steps, sink,
	// checkpointer, services), sorted by component name.
	Supervised []SupervisedStatus

	// FillQueue aggregates every lane's DNS ring and LookQueue every lane's
	// flow ring; Lanes is the lane count behind them.
	FillQueue queue.Stats
	LookQueue queue.Stats
	// WriteQueue is always zero: lanes hand their batches straight to the
	// sink. The field stays because the benchmark harness still reads it.
	WriteQueue queue.Stats
	Lanes      int
}

// CorrelationRate returns correlated bytes over total bytes — the paper's
// "ratio of correlated traffic to the total traffic" (81.7 % for Main).
func (s Stats) CorrelationRate() float64 {
	if s.FlowBytes == 0 {
		return 0
	}
	return float64(s.CorrelatedBytes) / float64(s.FlowBytes)
}

// CorrelationRateFlows returns correlated flows over total flows.
func (s Stats) CorrelationRateFlows() float64 {
	if s.Flows == 0 {
		return 0
	}
	return float64(s.Correlated) / float64(s.Flows)
}

// LossRate aggregates loss across the two intake rings — "loss on the
// streams" in the paper's terminology. It counts both accidental overflow
// (Dropped) and deliberate adaptive shed (Sampled): a record the operator
// chose to sacrifice is still a record the rollups never saw.
func (s Stats) LossRate() float64 {
	offered := s.FillQueue.Offered() + s.LookQueue.Offered()
	if offered == 0 {
		return 0
	}
	lost := s.FillQueue.Lost() + s.LookQueue.Lost()
	return float64(lost) / float64(offered)
}

// SampledRate is the deliberate-shed share alone: Sampled over Offered
// across the intake rings. LossRate − SampledRate is the accidental part.
func (s Stats) SampledRate() float64 {
	offered := s.FillQueue.Offered() + s.LookQueue.Offered()
	if offered == 0 {
		return 0
	}
	sampled := s.FillQueue.Sampled + s.LookQueue.Sampled
	return float64(sampled) / float64(offered)
}

// Stats snapshots the correlator's counters.
func (c *Correlator) Stats() Stats {
	st := Stats{
		DNSRecords:         c.stats.dnsRecords.Load(),
		DNSInvalid:         c.stats.dnsInvalid.Load(),
		Flows:              c.stats.flows.Load(),
		FlowInvalid:        c.stats.flowInvalid.Load(),
		FlowBytes:          c.stats.flowBytes.Load(),
		Correlated:         c.stats.correlated.Load(),
		CorrelatedBytes:    c.stats.correlatedBytes.Load(),
		Misses:             c.stats.misses.Load(),
		HitActive:          c.stats.hitActive.Load(),
		HitInactive:        c.stats.hitInactive.Load(),
		HitLong:            c.stats.hitLong.Load(),
		Memoized:           c.stats.memoized.Load(),
		Written:            c.stats.written.Load(),
		MaxWriteDelayNs:    c.stats.maxWriteDelay.Load(),
		IPNameRotations:    c.ipName.rotations.Load(),
		NameCnameRotations: c.nameCname.rotations.Load(),
		Sweeps:             c.ipName.sweeps.Load() + c.nameCname.sweeps.Load(),
		SweptEntries:       c.ipName.swept.Load() + c.nameCname.swept.Load(),
		Checkpoints:        c.stats.checkpoints.Load(),
		CheckpointErrors:   c.stats.checkpointErrors.Load(),
		RestoredEntries:    uint64(c.restoreStats.Entries),
		RestoredExpired:    uint64(c.restoreStats.Expired),
		Lanes:              c.Lanes(),
	}
	for i := range c.lanes {
		st.FillQueue = addStats(st.FillQueue, c.lanes[i].dns.Stats())
		st.LookQueue = addStats(st.LookQueue, c.lanes[i].flows.Stats())
	}
	for i := range st.ChainHist {
		st.ChainHist[i] = c.stats.chain[i].Load()
	}
	st.Poisoned = c.stats.poisoned.Load()
	st.Supervised = c.sup.snapshot()
	for _, s := range st.Supervised {
		st.Panics += s.Panics
		st.Restarts += s.Restarts
	}
	st.IPNameEntries, st.NameCnameEntries = c.StoreSizes()
	return st
}

// addStats sums two rings' counters; because each ring keeps Offered ==
// Enqueued + Dropped + Sampled, so does the sum.
func addStats(a, b queue.Stats) queue.Stats {
	return queue.Stats{
		Enqueued: a.Enqueued + b.Enqueued,
		Dropped:  a.Dropped + b.Dropped,
		Sampled:  a.Sampled + b.Sampled,
		Dequeued: a.Dequeued + b.Dequeued,
	}
}
