// Package core implements the FlowDNS correlator — the paper's primary
// contribution (§3): a real-time join between DNS response streams and
// NetFlow streams that attributes each flow's source IP to the service
// (domain name) it belongs to.
//
// The pipeline is the paper's Figure 1, sharded into lanes. Each lane has
// a DNS ring and a flow ring and one worker that is both the lane's FillUp
// and its LookUp worker: it fills DNS records into the sharded
// answer→query hashmaps, and resolves each flow's IP through the IP-NAME
// maps and then walks the NAME-CNAME maps backwards (up to 6 hops) toward
// the original service name, and hands the correlated batch to a sink.
// All state lives in active/inactive/long map generations rotated on
// the clear-up intervals (Algorithms 1 and 2, Table 1).
package core

import "time"

// Defaults from the paper (Table 1, §3.1, §3.3, Appendix A.6).
const (
	DefaultNumSplit         = 10
	DefaultAClearUpInterval = 3600 * time.Second
	DefaultCClearUpInterval = 7200 * time.Second
	DefaultCNAMEChainLimit  = 6
	DefaultQueueCapacity    = 65536
	// DefaultWriteBatchSize is a sink batch size for callers that batch
	// output themselves (offline replays): one lock acquisition and one
	// buffered write amortized over the batch. The live pipeline hands the
	// sink each lane round's batch instead.
	DefaultWriteBatchSize = 256
	// DefaultSnapshotInterval is the checkpoint cadence when SnapshotPath
	// is set without SnapshotEvery. Five minutes keeps the restart warmth
	// gap well under the shortest common answer TTLs' refresh horizon while
	// the checkpoint cost (one lock-striped store scan plus a sequential
	// file write) stays negligible at that rate.
	DefaultSnapshotInterval = 5 * time.Minute

	// DefaultRestartBackoffMin/Max bound the supervised-restart backoff: a
	// first restart after 100 ms keeps a transient fault's outage short,
	// doubling to a 5 s ceiling so a hard-crashing component cannot spin.
	DefaultRestartBackoffMin = 100 * time.Millisecond
	DefaultRestartBackoffMax = 5 * time.Second
	// DefaultSampleLowWater / DefaultSampleHighWater are the watermark
	// defaults applied when sampling is enabled (SampleMaxShed > 0) without
	// explicit watermarks: shedding starts at half-full buffers and reaches
	// the configured ceiling at 90 % fill, leaving the last tenth of the
	// buffer to absorb bursts while the sampler is already braking.
	DefaultSampleLowWater  = 0.5
	DefaultSampleHighWater = 0.9
)

// LookupKey selects which flow address the LookUp workers resolve. The
// paper's deployment analyzes traffic sources, "nonetheless, destination
// address or both source and destination addresses can be used with minor
// modifications" (§3.1).
type LookupKey int

// Lookup key modes.
const (
	// LookupSource resolves the flow's source IP (the paper's deployment).
	LookupSource LookupKey = iota
	// LookupDestination resolves the destination IP (e.g. for egress
	// attribution: which service are subscribers sending traffic to).
	LookupDestination
	// LookupBoth tries the source first and falls back to the destination.
	LookupBoth
)

// String names the mode.
func (k LookupKey) String() string {
	switch k {
	case LookupDestination:
		return "destination"
	case LookupBoth:
		return "both"
	default:
		return "source"
	}
}

// Config controls a Correlator. The zero value is not valid; start from
// DefaultConfig (the paper's "Main" benchmark) or one of the variant
// constructors and adjust.
type Config struct {
	// NumSplit is the number of splits for the IP-NAME hashmaps (Table 1:
	// NUM_SPLIT, empirically 10 in the paper's deployment). The lane-major
	// store layout requires a whole number of splits per lane, so
	// normalization rounds NumSplit up to the next multiple of Lanes;
	// Config() reports the effective value.
	NumSplit int
	// AClearUpInterval clears IP-NAME maps (paper: 3600 s, the 99th
	// percentile of A/AAAA TTLs).
	AClearUpInterval time.Duration
	// CClearUpInterval clears NAME-CNAME maps (paper: 7200 s).
	CClearUpInterval time.Duration
	// CNAMEChainLimit bounds the CNAME walk (paper: 6 covers >99 %).
	CNAMEChainLimit int

	// Lanes is the pipeline's parallelism: the paper's "multiple FillUp and
	// LookUp workers" are one worker per lane, filling and correlating in
	// one loop. At offer time DNS records are partitioned onto lanes by a
	// hash of the A/AAAA answer address, and flows by a hash of their
	// lookup address (Key), so one address always maps to one lane; via the
	// lane-major split layout each lane owns its own slice of the IP-NAME
	// store splits. 0 falls back to the paper default: one lane per split
	// (NumSplit, Table 1), mirroring the per-split design. The NoSplit
	// ablation collapses to a single lane.
	Lanes int

	// Key selects which flow address is resolved (default: source, as in
	// the paper's deployment).
	Key LookupKey

	// Ring capacities; an overflowing ring drops offered records (stream
	// loss), while PutDNSBatch (the TCP DNS source) waits for space.
	// FillQueueCap and LookQueueCap are totals across all lanes, divided
	// evenly (each lane's DNS ring gets FillQueueCap/Lanes and its flow
	// ring LookQueueCap/Lanes, minimum 1). A single hot address can buffer
	// up to one lane's share before that lane drops, so operators with
	// skewed traffic should raise these, watching each lane's occupancy in
	// the flowdns_lane_depth{lane,ring} gauges on /metrics.
	FillQueueCap int
	LookQueueCap int

	// Adaptive overload shedding (the production inverse of the paper's
	// "keep the buffer usage stable to avoid any loss" goal: when loss is
	// unavoidable, make it deliberate, smooth, and accounted). When
	// SampleMaxShed > 0 every intake ring gets a sampler that starts
	// shedding offered records once its buffer passes SampleLowWater fill,
	// ramping linearly to the SampleMaxShed fraction at SampleHighWater.
	// Shed records are counted in the queues' Stats.Sampled — never
	// silently lost — and surface in Stats.LossRate, /metrics, and
	// /query/health. SampleMaxShed == 0 (the default) disables sampling and
	// keeps the historical drop-on-overflow behaviour.
	SampleLowWater  float64
	SampleHighWater float64
	SampleMaxShed   float64

	// Ablation switches (§4 benchmarks).
	DisableSplit    bool // "No Split": one IP-NAME map instead of NumSplit
	DisableClearUp  bool // "No Clear-Up": maps are never cleared
	DisableRotation bool // "No Rotation": clear without keeping an inactive copy
	DisableLong     bool // "No Long Hashmaps": long-TTL records go to Active

	// ExactTTL enables the Appendix A.8 anti-benchmark: records carry their
	// exact expiry, lookups check it, and a scan-based sweeper removes
	// expired entries every ExactTTLSweepInterval, write-locking every
	// shard. The paper measured >90 % stream loss and ~2x memory this way.
	ExactTTL              bool
	ExactTTLSweepInterval time.Duration

	// SnapshotPath enables warm-restart checkpointing: New restores the
	// correlation store from this file on boot (expired entries dropped,
	// names re-interned), and Run writes it back every SnapshotEvery plus
	// once at the end of the graceful drain. Writes are atomic (temp file +
	// rename), so a crash mid-checkpoint never damages the previous one.
	// Empty disables checkpointing.
	SnapshotPath string
	// SnapshotEvery is the checkpoint cadence; 0 means
	// DefaultSnapshotInterval. Shorter intervals narrow the answer-state
	// window a crash loses at the cost of re-scanning the store more often.
	SnapshotEvery time.Duration

	// RestartBackoffMin/Max bound the supervised-restart backoff: when a
	// lane worker or attached Service dies abnormally (panic, early
	// return), it is restarted after RestartBackoffMin, doubling per
	// consecutive failure up to RestartBackoffMax. Zero values take the
	// defaults (100 ms / 5 s).
	RestartBackoffMin time.Duration
	RestartBackoffMax time.Duration
}

// DefaultConfig returns the paper's Main configuration. The flow rings get
// twice the DNS rings' capacity: a lane writes its own output, so a sink
// stall backs up into the flow rings, and they buffer it on top of the
// intake backlog.
func DefaultConfig() Config {
	return Config{
		NumSplit:              DefaultNumSplit,
		AClearUpInterval:      DefaultAClearUpInterval,
		CClearUpInterval:      DefaultCClearUpInterval,
		CNAMEChainLimit:       DefaultCNAMEChainLimit,
		FillQueueCap:          DefaultQueueCapacity,
		LookQueueCap:          2 * DefaultQueueCapacity,
		ExactTTLSweepInterval: 60 * time.Second,
	}
}

// Variant names the ablation benchmarks of §4 plus the Appendix A.8 mode.
type Variant string

// The benchmark variants evaluated in the paper.
const (
	VariantMain       Variant = "Main"
	VariantNoSplit    Variant = "NoSplit"
	VariantNoClearUp  Variant = "NoClearUp"
	VariantNoRotation Variant = "NoRotation"
	VariantNoLong     Variant = "NoLong"
	VariantExactTTL   Variant = "ExactTTL"
)

// AllVariants lists the figure-3 benchmark variants in the paper's order.
func AllVariants() []Variant {
	return []Variant{VariantMain, VariantNoClearUp, VariantNoLong, VariantNoRotation, VariantNoSplit}
}

// ConfigForVariant returns DefaultConfig with the variant's ablation applied.
func ConfigForVariant(v Variant) Config {
	cfg := DefaultConfig()
	switch v {
	case VariantNoSplit:
		cfg.DisableSplit = true
	case VariantNoClearUp:
		cfg.DisableClearUp = true
	case VariantNoRotation:
		cfg.DisableRotation = true
	case VariantNoLong:
		cfg.DisableLong = true
	case VariantExactTTL:
		cfg.ExactTTL = true
	}
	return cfg
}

// normalized fills unset fields with defaults so New never builds a broken
// pipeline from a partially specified config.
func (c Config) normalized() Config {
	d := DefaultConfig()
	c.NumSplit = orDefault(c.NumSplit, d.NumSplit)
	c.AClearUpInterval = orDefault(c.AClearUpInterval, d.AClearUpInterval)
	c.CClearUpInterval = orDefault(c.CClearUpInterval, d.CClearUpInterval)
	c.CNAMEChainLimit = orDefault(c.CNAMEChainLimit, d.CNAMEChainLimit)
	c.FillQueueCap = orDefault(c.FillQueueCap, d.FillQueueCap)
	c.LookQueueCap = orDefault(c.LookQueueCap, d.LookQueueCap)
	c.ExactTTLSweepInterval = orDefault(c.ExactTTLSweepInterval, d.ExactTTLSweepInterval)
	c.SnapshotEvery = orDefault(c.SnapshotEvery, DefaultSnapshotInterval)
	c.RestartBackoffMin = orDefault(c.RestartBackoffMin, DefaultRestartBackoffMin)
	if c.SampleMaxShed > 0 {
		if c.SampleMaxShed > 1 {
			c.SampleMaxShed = 1
		}
		if c.SampleLowWater <= 0 {
			c.SampleLowWater = DefaultSampleLowWater
		}
		if c.SampleHighWater <= 0 {
			c.SampleHighWater = DefaultSampleHighWater
		}
		if c.SampleHighWater > 1 {
			c.SampleHighWater = 1
		}
	}
	if c.RestartBackoffMax < c.RestartBackoffMin {
		c.RestartBackoffMax = DefaultRestartBackoffMax
		if c.RestartBackoffMax < c.RestartBackoffMin {
			c.RestartBackoffMax = c.RestartBackoffMin
		}
	}
	c.Lanes = orDefault(c.Lanes, c.NumSplit) // paper default: one lane per split
	if c.DisableSplit {
		c.NumSplit, c.Lanes = 1, 1
	}
	// The lane-major store layout needs an equal number of splits per
	// lane; round NumSplit up to the next multiple of Lanes so Config()
	// reports the split count actually allocated.
	if rem := c.NumSplit % c.Lanes; rem != 0 {
		c.NumSplit += c.Lanes - rem
	}
	return c
}

// orDefault returns v, or def when v is not positive.
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}
