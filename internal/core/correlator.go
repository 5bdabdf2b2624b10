package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmap"
	"repro/internal/dnsname"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/queue"
	"repro/internal/stream"
)

// CorrelatedFlow is the output record: the original flow annotated with the
// service name FlowDNS resolved for its source IP. It is what the lane
// workers hand to the sink and what the ISP joins with BGP data downstream.
type CorrelatedFlow struct {
	Flow netflow.FlowRecord
	// Name is the resolved service/domain name, "" when the lookup missed
	// (result = NULL in Algorithm 2).
	Name string
	// ChainLen counts NAME-CNAME hops taken (0 = the IP-NAME hit was final).
	ChainLen int
	// Tier records which generation satisfied the IP-NAME lookup.
	Tier Tier
	// EnqueuedAt is the wall-clock instant the flow entered its lane's flow
	// ring (stamped by OfferFlowBatch; zero for synchronous CorrelateFlow
	// calls). The write-delay metric — time from flow arrival to the sink
	// write, spanning the flow ring wait, the correlation, and the sink
	// call — derives from it.
	EnqueuedAt time.Time
}

// Correlated reports whether a name was resolved.
func (c *CorrelatedFlow) Correlated() bool { return c.Name != "" }

// ErrAlreadyRunning is returned by Run when the correlator has already been
// run; a Correlator's lifecycle is single-use.
var ErrAlreadyRunning = errors.New("core: correlator already running")

// flowEntry is one LookUp queue item: the flow plus its arrival instant.
type flowEntry struct {
	fr netflow.FlowRecord
	at time.Time
}

// ingestBatchSize bounds how many records a lane worker takes from each of
// its rings per round (one lock acquisition however many it takes), so the
// queue cost is paid per batch without adding latency (workers never wait
// for a batch to fill).
const ingestBatchSize = 128

// Option configures optional Correlator behaviour at construction.
type Option func(*Correlator)

// WithSink routes correlated flows to s. Without this option output is
// discarded (pure measurement runs). The correlator owns the sink's
// lifecycle from Run's perspective: Flush then Close at the end of the
// drain.
func WithSink(s Sink) Option {
	return func(c *Correlator) {
		if s != nil {
			c.sink = s
		}
	}
}

// WithSources attaches input streams. Run launches every source with the
// run context and the correlator as the ingest façade; when all sources
// complete, the pipeline drains and Run returns.
func WithSources(srcs ...stream.Source) Option {
	return func(c *Correlator) {
		for _, s := range srcs {
			if s != nil {
				c.sources = append(c.sources, s)
			}
		}
	}
}

// Service is an auxiliary long-running component the correlator hosts for
// the duration of a run — the query-plane HTTP server, the window store's
// maintenance loop. Run launches every attached service alongside the
// pipeline workers and stops it (by cancelling its context) only after the
// drain completes and the sink has closed, so services observe the final
// flushed state before shutting down. Services run supervised: a Serve
// that panics or returns while the run is live is restarted with
// exponential backoff (Config.RestartBackoffMin/Max), counted in the
// per-component Panics/Restarts stats. A service's last abnormal error
// never stops the pipeline; it is joined into Run's result.
type Service interface {
	// Name labels the service in errors.
	Name() string
	// Serve runs until ctx is done; its return is joined into Run's error.
	Serve(ctx context.Context) error
}

// WithServices attaches auxiliary services to the run lifecycle.
func WithServices(svcs ...Service) Option {
	return func(c *Correlator) {
		for _, s := range svcs {
			if s != nil {
				c.services = append(c.services, s)
			}
		}
	}
}

// WithMetrics invokes observe with a stats snapshot every interval while
// Run is active, plus once at the end of the drain — the hook the daemon
// uses for periodic logging and exporters use for scraping.
func WithMetrics(interval time.Duration, observe func(Stats)) Option {
	return func(c *Correlator) {
		if interval > 0 && observe != nil {
			c.metricsInterval = interval
			c.observe = observe
		}
	}
}

// Correlator is the FlowDNS pipeline of Figure 1. Construct with New, feed
// it via the stream.Ingest façade (OfferDNSBatch/OfferFlowBatch, plus
// PutDNSBatch for sources that can wait) or attach Sources, run the lane
// workers with Run(ctx) — cancellation stops intake and drains every lane
// through the sink — and read Stats at any time. The deterministic
// IngestDNS/CorrelateFlow methods bypass the queues for offline replays.
type Correlator struct {
	stats statsCounters // first: its layout assumes a cache-line start

	cfg      Config
	sink     Sink
	sources  []stream.Source
	services []Service

	// draining closes the moment Run begins its graceful drain; Draining()
	// is the flag HTTP handlers consult to stop racing the sealing path.
	draining chan struct{}

	metricsInterval time.Duration
	observe         func(Stats)

	ipName    *store // A/AAAA answer(IP) -> query name
	nameCname *store // CNAME answer(canonical) -> query (alias)

	// lanes are the pipeline's shards (lane.go), each drained by one worker
	// that writes what it correlates to the sink. dnsParts and flowParts
	// recycle the staging an offered batch is partitioned into.
	lanes     []lane
	dnsParts  sync.Pool // *partition[stream.DNSRecord]
	flowParts sync.Pool // *partition[flowEntry]
	lanesWG   sync.WaitGroup
	// busyLanes counts lanes between finding work and finding none;
	// unflushed is set by a sink write and cleared by the flush the last
	// lane to go idle makes (laneIdle).
	busyLanes atomic.Int32
	unflushed atomic.Bool

	// fillBufPool recycles the item-assembly scratch the public
	// IngestDNSBatch uses; lane workers hold a private buffer instead.
	fillBufPool sync.Pool

	started atomic.Bool

	// restoreStats / restoreErr record the outcome of New's restore-on-boot
	// (see RestoreResult); written once during construction, read-only after.
	restoreStats RestoreStats
	restoreErr   error

	// sinkErr holds the first WriteBatch or Flush error; once set, the
	// lanes drain without writing and Run begins shutdown.
	sinkErr     atomic.Pointer[error]
	sinkFailed  chan struct{}
	sinkErrOnce sync.Once

	// sup tracks panic containment and supervised restarts per component
	// (lane steps, sink, checkpointer, services).
	sup supervisor
}

// New builds a Correlator with the given config. With no options the
// correlator discards output and has no sources.
func New(cfg Config, opts ...Option) *Correlator {
	cfg = cfg.normalized()
	c := &Correlator{
		cfg:  cfg,
		sink: DiscardSink{},
		ipName: newStore(storeConfig{
			splits:        cfg.NumSplit,
			lanes:         cfg.Lanes,
			interval:      cfg.AClearUpInterval,
			rotation:      !cfg.DisableRotation,
			clearUp:       !cfg.DisableClearUp,
			longEnabled:   !cfg.DisableLong && !cfg.DisableClearUp,
			exactTTL:      cfg.ExactTTL,
			sweepInterval: cfg.ExactTTLSweepInterval,
		}),
		// Table 1 lists NAME-CNAME without a split subscript: CNAME volume
		// is far below A/AAAA volume, so one split suffices.
		nameCname: newStore(storeConfig{
			splits:        1,
			interval:      cfg.CClearUpInterval,
			rotation:      !cfg.DisableRotation,
			clearUp:       !cfg.DisableClearUp,
			longEnabled:   !cfg.DisableLong && !cfg.DisableClearUp,
			exactTTL:      cfg.ExactTTL,
			sweepInterval: cfg.ExactTTLSweepInterval,
		}),
		sinkFailed: make(chan struct{}),
		draining:   make(chan struct{}),
	}
	c.sup.backoffMin, c.sup.backoffMax = cfg.RestartBackoffMin, cfg.RestartBackoffMax
	sampler := queue.SamplerConfig{
		LowWater:  cfg.SampleLowWater,
		HighWater: cfg.SampleHighWater,
		MaxShed:   cfg.SampleMaxShed,
	}
	c.lanes = newLanes(cfg.Lanes, cfg.FillQueueCap, cfg.LookQueueCap, sampler)
	c.dnsParts.New = newPartition[stream.DNSRecord](cfg.Lanes)
	c.flowParts.New = newPartition[flowEntry](cfg.Lanes)
	c.fillBufPool.New = func() any { return new(fillBuf) }
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	// Restore-on-boot: repopulate the stores from the last checkpoint, if
	// one exists. This runs after the lanes are built (restored names
	// re-intern through the lane interners) and before any worker starts,
	// so the restore itself is the only writer.
	if cfg.SnapshotPath != "" {
		c.restoreFromFile(cfg.SnapshotPath)
	}
	return c
}

// fillBuf is the reusable scratch one IngestDNSBatch call assembles its
// store items in: the 16-byte binary keys (backing storage the items alias)
// and the Active/Long item groups handed to store.putItems.
type fillBuf struct {
	keys   [][16]byte
	active []cmap.Item
	long   []cmap.Item
	sc     dispatchScratch
}

// ipHash hashes the 16-byte canonical address form in two 64-bit loads
// plus a SplitMix64-style finalizer — a fraction of the cost of hashing 16
// bytes through byte-at-a-time FNV on the per-flow path. Every operation
// on binary IP keys (lane selection, store split labeling, shard
// selection, fills) must use this same hash; that shared value is what
// makes lane ↔ split-slice ownership line up.
func ipHash(key *[16]byte) uint32 {
	lo := binary.LittleEndian.Uint64(key[:8])
	hi := binary.LittleEndian.Uint64(key[8:])
	x := lo ^ bits.RotateLeft64(hi, 32)
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return uint32(x)
}

// laneForHash maps a key hash onto the lane owning it: the low bits of the
// hash, exactly as the store's lane-major split layout uses them.
func (c *Correlator) laneForHash(h uint32) int { return int(h % uint32(len(c.lanes))) }

// laneFor returns the lane owning addr.
func (c *Correlator) laneFor(addr netip.Addr) int {
	if len(c.lanes) == 1 {
		return 0
	}
	a16 := addr.As16()
	return c.laneForHash(ipHash(&a16))
}

// LaneFor returns the lane a DNS record routes to: A/AAAA records by the
// answer address that labels their store split (the offer path
// materializes it first, so string-only and wire records for one IP agree),
// others (CNAMEs, garbage answers) by the answer-string hash.
func (c *Correlator) LaneFor(rec *stream.DNSRecord) int {
	if rec.Addr.IsValid() || len(c.lanes) == 1 {
		return c.laneFor(rec.Addr)
	}
	return c.laneForHash(cmap.Hash(rec.Answer))
}

// flowLane returns the lane owning the address fr is resolved by; LookupBoth
// routes by its first probe, the source.
func (c *Correlator) flowLane(fr *netflow.FlowRecord) int {
	if c.cfg.Key == LookupDestination {
		return c.laneFor(fr.DstIP)
	}
	return c.laneFor(fr.SrcIP)
}

// Lanes returns the number of lanes in effect.
func (c *Correlator) Lanes() int { return len(c.lanes) }

// Config returns the normalized configuration in effect.
func (c *Correlator) Config() Config { return c.cfg }

// --- stream.Ingest façade (live pipeline) ---

// OfferDNSBatch partitions a batch of DNS records onto their lanes in one
// pass, as OfferFlowBatch does for flows, and returns how many were
// accepted; the rest were dropped (stream loss). The lane is chosen by the
// answer-address hash, so records for the same address always land on the
// same lane.
func (c *Correlator) OfferDNSBatch(recs []stream.DNSRecord) int { return c.enqueueDNS(recs, false) }

// PutDNSBatch is OfferDNSBatch for a source that can wait: on a full lane
// DNS ring it blocks until the lane worker frees space instead of dropping,
// so a TCP stream carries the stall back to its sender. The drain's close
// of the rings ends a wait; records still unplaced then count as dropped.
func (c *Correlator) PutDNSBatch(recs []stream.DNSRecord) int { return c.enqueueDNS(recs, true) }

func (c *Correlator) enqueueDNS(recs []stream.DNSRecord, wait bool) int {
	if len(recs) == 0 {
		return 0
	}
	if len(c.lanes) == 1 {
		return enqueue(c.lanes[0].dns, recs, wait)
	}
	p := c.dnsParts.Get().(*partition[stream.DNSRecord])
	for i := range recs {
		r := recs[i]
		r.TypeAnswerAddr()
		l := c.LaneFor(&r)
		p.lane[l] = append(p.lane[l], r)
	}
	n := p.offer(c.lanes, dnsRing, wait)
	c.dnsParts.Put(p)
	return n
}

// OfferFlowBatch partitions a batch of flows onto their lanes — one arrival
// stamp for the whole batch — and returns how many were accepted; the rest
// were dropped (stream loss). The lane is chosen by a hash of the flow's
// lookup address (Config.Key), so flows resolved by the same address always
// land on the same lane.
func (c *Correlator) OfferFlowBatch(frs []netflow.FlowRecord) int {
	if len(frs) == 0 {
		return 0
	}
	now := time.Now()
	p := c.flowParts.Get().(*partition[flowEntry])
	for i := range frs {
		l := c.flowLane(&frs[i])
		p.lane[l] = append(p.lane[l], flowEntry{fr: frs[i], at: now})
	}
	n := p.offer(c.lanes, flowRing, false)
	c.flowParts.Put(p)
	return n
}

var _ stream.Ingest = (*Correlator)(nil)

// QueueDepths reports the current occupancy of the two intake rings — the
// "buffer usage" the paper's operators watch to keep loss at zero — each
// aggregated over every lane; LaneDepths has the per-lane breakdown.
func (c *Correlator) QueueDepths() (fill, look int) {
	for i := range c.lanes {
		fill += c.lanes[i].dns.Len()
		look += c.lanes[i].flows.Len()
	}
	return fill, look
}

// LaneDepths reports each lane's DNS and flow ring occupancy — the skew
// monitor for the address partition (a hot address shows up as one deep
// lane).
func (c *Correlator) LaneDepths() (dns, flows []int) {
	dns, flows = make([]int, len(c.lanes)), make([]int, len(c.lanes))
	for i := range c.lanes {
		dns[i], flows[i] = c.lanes[i].dns.Len(), c.lanes[i].flows.Len()
	}
	return dns, flows
}

// Run executes the pipeline: it launches the lane workers plus every
// attached source, then blocks until one of
//
//   - ctx is cancelled (graceful shutdown request),
//   - all attached sources complete (end of finite input),
//   - a source fails (abnormal stream death must not leave the pipeline
//     running blind), or
//   - the sink fails (first WriteBatch error)
//
// and performs a graceful drain: sources stop, every lane's two rings close
// and drain through the sink, and the sink is flushed and closed once. Run
// returns source and sink errors joined; cancellation itself is a clean
// shutdown, not an error. A Correlator runs at most once.
func (c *Correlator) Run(ctx context.Context) error {
	if !c.started.CompareAndSwap(false, true) {
		return ErrAlreadyRunning
	}

	// The drain must finish even after ctx is cancelled: in-flight records
	// belong to the sink, so sink writes run under an uncancellable child.
	c.startLanes(context.WithoutCancel(ctx))

	// Sources run under their own cancellable context so that sink
	// failure, source failure, and source completion can stop intake
	// before ctx itself is done.
	srcCtx, stopSources := context.WithCancel(ctx)
	defer stopSources()
	var wgSrc sync.WaitGroup
	var srcFailedOnce sync.Once
	srcFailed := make(chan struct{})
	srcErrs := make([]error, len(c.sources))
	for i, src := range c.sources {
		wgSrc.Add(1)
		go func() {
			defer wgSrc.Done()
			if err := src.Run(srcCtx, c); err != nil {
				srcErrs[i] = err
				// Fail fast: a source that dies abnormally must not leave
				// the pipeline running blind until process exit.
				srcFailedOnce.Do(func() { close(srcFailed) })
			}
		}()
	}
	var sourcesDone chan struct{}
	if len(c.sources) > 0 {
		sourcesDone = make(chan struct{})
		go func() {
			wgSrc.Wait()
			close(sourcesDone)
		}()
	}

	// The background checkpointer owns the periodic snapshot writes for the
	// whole run; the final checkpoint after the drain happens on this
	// goroutine's exit path below, so two Checkpoint calls never overlap.
	stopCheckpointer := func() {}
	if c.cfg.SnapshotPath != "" {
		h := c.sup.comp(compCheckpoint)
		stopCheckpointer = every(c.cfg.SnapshotEvery, func() {
			// A panic inside the checkpoint write path (injected or real) is
			// contained and counted as a failed checkpoint; the previous
			// on-disk generation stays good either way.
			c.countCheckpoint(guardErr(h, func() error { return c.Checkpoint(c.cfg.SnapshotPath) }))
		})
	}

	// Services outlive the drain: the query plane keeps answering (and the
	// store keeps maintaining) while the pipeline flushes, and stops only
	// after the sink has closed — so a service shutdown snapshot sees the
	// final persisted state. WithoutCancel detaches them from the caller's
	// cancellation; svcStop is the lifecycle's own switch.
	svcCtx, svcStop := context.WithCancel(context.WithoutCancel(ctx))
	defer svcStop()
	var wgSvc sync.WaitGroup
	svcErrs := make([]error, len(c.services))
	for i, svc := range c.services {
		wgSvc.Add(1)
		go func() {
			defer wgSvc.Done()
			svcErrs[i] = c.sup.serve(svcCtx, svc)
		}()
	}

	stopMetrics := func() {}
	if c.observe != nil {
		stopMetrics = every(c.metricsInterval, func() { c.observe(c.Stats()) })
	}

	select {
	case <-ctx.Done():
	case <-c.sinkFailed:
	case <-srcFailed:
	case <-sourcesDone:
	}
	close(c.draining)

	// Graceful drain: stop intake, close both rings of every lane and wait
	// for the lane workers to empty them into the sink, so every flow
	// accepted into any lane reaches the sink exactly once. A source waiting
	// in PutDNSBatch is released by the still-running lanes, not by a close.
	stopSources()
	wgSrc.Wait()
	for i := range c.lanes {
		c.lanes[i].close()
	}
	c.lanesWG.Wait()
	stopMetrics()
	stopCheckpointer()

	errs := make([]error, 0, len(srcErrs)+len(svcErrs)+4)
	errs = append(errs, srcErrs...)
	// Final checkpoint: the drain is complete and every worker has stopped,
	// so this snapshot captures the exact state the next boot should resume
	// from. Its failure is a real operational error, reported to the caller
	// rather than just counted.
	if c.cfg.SnapshotPath != "" {
		err := c.Checkpoint(c.cfg.SnapshotPath)
		c.countCheckpoint(err)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: final checkpoint: %w", err))
		}
	}
	if perr := c.sinkErr.Load(); perr != nil {
		errs = append(errs, *perr)
	}
	errs = append(errs, c.sink.Flush(), c.sink.Close())
	// The sink is closed: every sealed window has reached its OnSeal targets.
	// Now stop the services and wait them out.
	svcStop()
	wgSvc.Wait()
	errs = append(errs, svcErrs...)
	if c.observe != nil {
		c.observe(c.Stats())
	}
	return errors.Join(errs...)
}

// every calls fn once per interval on its own goroutine until the returned
// stop is called; stop returns once that goroutine has exited, so fn never
// runs concurrently with whatever follows stop.
func every(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				fn()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// countCheckpoint tallies one checkpoint attempt.
func (c *Correlator) countCheckpoint(err error) {
	if err != nil {
		c.stats.checkpointErrors.Add(1)
	} else {
		c.stats.checkpoints.Add(1)
	}
}

// writeBatch is a lane's Write step: record the write delay and hand the
// batch to the sink under ctx. The sink's own buffer and laneIdle decide
// when output is flushed.
func (c *Correlator) writeBatch(ctx context.Context, h *compHealth, batch []CorrelatedFlow) {
	if len(batch) == 0 {
		return
	}
	now := time.Now()
	for i := range batch {
		if !batch[i].EnqueuedAt.IsZero() {
			c.observeWriteDelay(now.Sub(batch[i].EnqueuedAt))
		}
	}
	if c.sinkErr.Load() != nil {
		return // sink already failed: drain without writing
	}
	// A panicking sink is contained and handled like a sink error: the run
	// shuts down cleanly instead of crashing.
	if err := guardErr(h, func() error { return c.sink.WriteBatch(ctx, batch) }); err != nil {
		c.failSink(err)
		return
	}
	c.stats.written.Add(uint64(len(batch)))
	if !c.unflushed.Load() {
		c.unflushed.Store(true)
	}
}

// Draining reports whether Run has begun its graceful drain — the flag the
// HTTP snapshot handlers consult to answer 503 instead of racing the
// sealing path. It stays true after Run returns.
func (c *Correlator) Draining() bool {
	select {
	case <-c.draining:
		return true
	default:
		return false
	}
}

// failSink records the first sink error and triggers shutdown.
func (c *Correlator) failSink(err error) {
	c.sinkErrOnce.Do(func() {
		c.sinkErr.Store(&err)
		close(c.sinkFailed)
	})
}

// --- synchronous API (deterministic replays, tests, examples) ---

// IngestDNS validates one DNS record and fills it into the hashmaps
// (Algorithm 1). It may be called directly for deterministic offline
// replays; the async pipeline's lane workers use IngestDNSBatch's body,
// which amortizes the clear-up check and the stats updates. A/AAAA answers
// are keyed by the 16-byte binary address form — the same key LookUp
// builds from a flow's address — taken straight from the typed Addr field
// when the producer supplied it (wire decoder, capture reader, workload
// generator); only string-only records pay a parse here, and one that
// fails to parse is rejected by the §3.2 filter.
func (c *Correlator) IngestDNS(rec stream.DNSRecord) {
	if !rec.IsValid() {
		c.stats.dnsInvalid.Add(1)
		return
	}
	switch rec.RType {
	case dnswire.TypeA, dnswire.TypeAAAA:
		addr := rec.Addr
		if !addr.IsValid() {
			var err error
			addr, err = netip.ParseAddr(rec.Answer)
			if err != nil {
				c.stats.dnsInvalid.Add(1)
				return
			}
		}
		key := addr.As16()
		h := ipHash(&key)
		// One hash serves lane/interner selection, split labeling, and
		// shard selection.
		in := c.lanes[c.laneForHash(h)].in
		value := in.intern(dnsname.Normalize(rec.Query))
		c.ipName.putBytesHash(rec.Timestamp, rec.TTL, h, key[:], value)
	case dnswire.TypeCNAME:
		in := c.lanes[c.laneForHash(cmap.Hash(rec.Answer))].in
		value := in.intern(dnsname.Normalize(rec.Query))
		c.nameCname.put(rec.Timestamp, rec.TTL, in.intern(dnsname.Normalize(rec.Answer)), value)
	}
	c.stats.dnsRecords.Add(1)
}

// IngestDNSBatch fills a batch of DNS records (Algorithm 1, batched). It
// is the lane worker's fill step: per-record counter updates accumulate in a
// batch-local tally, the store's clear-up clock advances once per batch
// (at the batch's last accepted record timestamp — streams are delivered
// in near-arrival order, so the last record is the freshest within
// jitter, and the clear-up intervals are hours; records the filter or the
// address parse rejects never touch the clock, exactly as in the
// record-at-a-time path), and the A/AAAA items are
// grouped by store split and shard so each touched shard lock is taken
// once per batch. Record order within one batch is not significant — a
// rotation boundary inside a batch rotates before the whole batch lands in
// the fresh Active generation.
func (c *Correlator) IngestDNSBatch(recs []stream.DNSRecord) {
	if len(recs) == 0 {
		return
	}
	buf := c.fillBufPool.Get().(*fillBuf)
	c.ingestBatch(recs, c.lanes[c.LaneFor(&recs[0])].in, buf)
	c.fillBufPool.Put(buf)
}

// ingestBatch is the shared IngestDNSBatch body; lane workers pass their
// lane's interner and a worker-private scratch buffer.
func (c *Correlator) ingestBatch(recs []stream.DNSRecord, in *interner, buf *fillBuf) {
	var records, invalid uint64
	var batchTS time.Time
	if cap(buf.keys) < len(recs) {
		buf.keys = make([][16]byte, len(recs))
	}
	keys := buf.keys[:len(recs)]
	active, long := buf.active[:0], buf.long[:0]
	exact := c.ipName.exactTTL
	longEnabled := c.ipName.longEnabled
	for i := range recs {
		rec := &recs[i]
		// Poison failpoint: one atomic load when disabled. Firing here —
		// before the record touches the stores or the tally — keeps the
		// per-record containment retry in ingestGuarded exactly-once.
		if err := fpFillRecord.Inject(); err != nil {
			panic(err)
		}
		if !rec.IsValid() {
			invalid++
			continue
		}
		value := in.intern(dnsname.Normalize(rec.Query))
		switch rec.RType {
		case dnswire.TypeA, dnswire.TypeAAAA:
			addr := rec.Addr
			if !addr.IsValid() {
				var err error
				addr, err = netip.ParseAddr(rec.Answer)
				if err != nil {
					invalid++
					continue
				}
			}
			keys[i] = addr.As16()
			item := cmap.Item{Hash: ipHash(&keys[i]), Key: keys[i][:], Value: value}
			switch {
			case exact:
				item.Exp = expiryOf(rec.Timestamp, rec.TTL)
				active = append(active, item)
			case longEnabled && time.Duration(rec.TTL)*time.Second >= c.ipName.ttlThreshold:
				long = append(long, item)
			default:
				active = append(active, item)
			}
			batchTS = rec.Timestamp
		case dnswire.TypeCNAME:
			// CNAME volume is a fraction of A/AAAA volume and the NAME-CNAME
			// store is single-split; record-at-a-time puts are fine here.
			c.nameCname.put(rec.Timestamp, rec.TTL, in.intern(dnsname.Normalize(rec.Answer)), value)
			batchTS = rec.Timestamp
		}
		records++
	}
	if len(active)+len(long) > 0 {
		c.ipName.putItems(batchTS, active, long, &buf.sc)
	}
	buf.active, buf.long = active[:0], long[:0]
	if records != 0 {
		c.stats.dnsRecords.Add(records)
	}
	if invalid != 0 {
		c.stats.dnsInvalid.Add(invalid)
	}
}

// lookupIP resolves one address against the IP-NAME store with a stack
// key: As16 never allocates and the byte-keyed probe never retains the
// slice, so the whole lookup is allocation-free.
func (c *Correlator) lookupIP(ts time.Time, addr netip.Addr) (string, Tier) {
	key := addr.As16()
	return c.ipName.getBytesHash(ts, ipHash(&key), key[:])
}

// CorrelateFlow resolves one flow (Algorithm 2) and returns the correlated
// record. It may be called directly for deterministic offline replays; the
// async pipeline's lane workers correlate whole batches, which amortizes
// the stats updates.
func (c *Correlator) CorrelateFlow(fr netflow.FlowRecord) CorrelatedFlow {
	var tally lookTally
	var cf CorrelatedFlow
	c.correlateInto(&cf, &fr, &tally)
	tally.flush(&c.stats)
	return cf
}

// CorrelateBatch resolves every flow in frs, appending the correlated
// records to dst and returning the extended slice, as the lane workers'
// LookUp step does: per-flow counter updates accumulate in a local tally that
// is flushed to the shared stats block once per batch, keeping the hit
// path free of both allocations and shared-cache-line traffic.
func (c *Correlator) CorrelateBatch(dst []CorrelatedFlow, frs []netflow.FlowRecord) []CorrelatedFlow {
	var tally lookTally
	for i := range frs {
		dst = append(dst, CorrelatedFlow{})
		c.correlateInto(&dst[len(dst)-1], &frs[i], &tally)
	}
	tally.flush(&c.stats)
	return dst
}

// correlateInto is Algorithm 2 for a single flow, writing the result into
// cf. The pointer shape avoids copying the (large) flow and result structs
// through every call; all counters go to tally, not the shared atomics —
// callers flush.
func (c *Correlator) correlateInto(cf *CorrelatedFlow, fr *netflow.FlowRecord, tally *lookTally) {
	cf.Flow = *fr
	tally.flows++
	tally.flowBytes += fr.Bytes
	if !fr.IsValid() {
		tally.flowInvalid++
		return
	}
	var name string
	tier := TierNone
	switch c.cfg.Key {
	case LookupDestination:
		name, tier = c.lookupIP(fr.Timestamp, fr.DstIP)
	case LookupBoth:
		name, tier = c.lookupIP(fr.Timestamp, fr.SrcIP)
		if tier == TierNone {
			name, tier = c.lookupIP(fr.Timestamp, fr.DstIP)
		}
	default:
		name, tier = c.lookupIP(fr.Timestamp, fr.SrcIP)
	}
	if tier == TierNone {
		tally.misses++
		return
	}
	cf.Tier = tier
	tally.hits[tier]++

	// Walk the CNAME chain backwards: answer(canonical) -> query(alias),
	// ending at the name nothing else aliases — the original service name.
	first := name
	result := name
	hops := 0
	for hops < c.cfg.CNAMEChainLimit {
		next, t := c.nameCname.get(fr.Timestamp, result)
		if t == TierNone || next == result {
			break
		}
		result = next
		hops++
	}
	if hops > 1 {
		// §3.3 step 7: memoize multi-hop resolutions for later use.
		c.nameCname.memoize(first, result)
		tally.memoized++
	}
	cf.Name = result
	cf.ChainLen = hops
	tally.correlated++
	tally.correlatedBytes += fr.Bytes
	b := hops
	if b >= maxChainBucket {
		b = maxChainBucket - 1
	}
	tally.chain[b]++
}

// StoreSizes returns current entry counts of the two map families; the
// experiments use this as the state-size series behind the memory figures.
func (c *Correlator) StoreSizes() (ipName, nameCname int) {
	return c.ipName.size(), c.nameCname.size()
}

func (c *Correlator) observeWriteDelay(d time.Duration) {
	for {
		cur := c.stats.maxWriteDelay.Load()
		if int64(d) <= cur {
			return
		}
		if c.stats.maxWriteDelay.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}
