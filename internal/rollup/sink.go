package rollup

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dbl"
)

// Format selects the sealed-window export encoding.
type Format string

// Export formats, matching the correlated-flow sink family.
const (
	FormatTSV  Format = "tsv"
	FormatJSON Format = "json"
)

// ParseFormat resolves a format name; "" means TSV.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "", FormatTSV:
		return FormatTSV, nil
	case FormatJSON:
		return FormatJSON, nil
	default:
		return "", fmt.Errorf("rollup: unknown export format %q (have tsv, json)", s)
	}
}

// minSealGrace floors how far behind the wall clock the rotation ticker
// seals. The effective grace is max(minSealGrace, rotation interval): a
// window must have been over for a full rotation before it is exported.
// The dominant lag is not the pipeline's own queues (milliseconds) but
// the flow exporter: NetFlow records carry the flow's start timestamp and
// are exported when the flow ends, so observations routinely trail their
// window by an active-timeout's worth of wall clock. Flows later than
// even the grace re-open the window, and the next seal exports a second
// partial for the same interval — which is safe by construction: sealed
// windows are merge-snapshots, so consumers aggregate rows by (window
// start, key), exactly as Merge does.
const minSealGrace = 2 * time.Second

// Sink adapts the Rollup engine to the correlator's Sink interface: every
// correlated flow handed to WriteBatch is attributed — Service from the
// correlation result, origin ASN from an optional BGP table (longest prefix
// match on the flow's source address, as in the paper's Figure 4), DBL
// category from an optional blocklist (Figure 5) — and observed into the
// engine. It composes with the record-writing sinks through core.MultiSink,
// so one pipeline can dump correlated flows and keep live rollups at once.
//
// The attribution path is allocation-free: the service name is already
// normalized by the correlator, the BGP and blocklist lookups allocate
// nothing, and the engine's Observe hit path is allocation-free by design.
// Each WriteBatch call claims one engine shard for the whole batch, so
// concurrent lane workers land on different shards and never contend.
//
// With WithRotation, a background ticker seals every window that has been
// over for at least a rotation interval and exports it; Close stops the
// ticker, seals everything left (a closing pipeline never loses a partial
// window), and reports any export error.
type Sink struct {
	r *Rollup
	// Attribution goes through hot handles so the daemon can swap in a
	// freshly loaded BGP table or blocklist (SIGHUP, /admin/reload) without
	// stopping the pipeline; WriteBatch loads each handle once per batch,
	// so a batch is always attributed against one consistent table/list and
	// a swap never drops an in-flight lookup.
	table *bgp.Hot
	list  *dbl.Hot

	out    io.Writer
	format Format
	onSeal func([]Window)

	rotateEvery time.Duration
	stop        chan struct{}
	done        chan struct{}
	sealErr     error // written by the rotation goroutine, read after <-done

	closeOnce sync.Once
	closeErr  error
}

// SinkOption configures optional Sink behaviour at construction.
type SinkOption func(*Sink)

// WithTable attributes each flow's source address to its origin AS through
// t, wrapping it in a fixed hot handle (and freezing it — the sink only
// reads, per bgp.Table's build-then-read contract). For a reloadable table
// use WithHotTable.
func WithTable(t *bgp.Table) SinkOption {
	return func(s *Sink) { s.table = bgp.NewHot(t) }
}

// WithHotTable attributes origin ASes through a hot-swappable handle the
// caller keeps: Swap on it (e.g. from a SIGHUP handler) and the sink's next
// batch is attributed against the new table, with zero dropped lookups
// during the swap.
func WithHotTable(h *bgp.Hot) SinkOption {
	return func(s *Sink) { s.table = h }
}

// WithBlocklist attributes each resolved service name to its DBL category
// through l, wrapping it in a fixed hot handle. For a reloadable list use
// WithHotBlocklist.
func WithBlocklist(l *dbl.List) SinkOption {
	return func(s *Sink) { s.list = dbl.NewHot(l) }
}

// WithHotBlocklist attributes DBL categories through a hot-swappable handle
// the caller keeps, mirroring WithHotTable.
func WithHotBlocklist(h *dbl.Hot) SinkOption {
	return func(s *Sink) { s.list = h }
}

// WithExport streams sealed windows to w in the given format. Each seal is
// written and flushed as one unit; the writer's lifecycle belongs to the
// caller.
func WithExport(w io.Writer, f Format) SinkOption {
	return func(s *Sink) {
		s.out = w
		s.format = f
	}
}

// WithRotation seals and exports completed windows every interval on the
// wall clock; a window is sealed once it has been over for a full
// interval (minimum minSealGrace). Without it, windows are sealed only
// at Close — the mode deterministic replays and tests use.
func WithRotation(every time.Duration) SinkOption {
	return func(s *Sink) {
		if every > 0 {
			s.rotateEvery = every
		}
	}
}

// WithOnSeal invokes fn with every batch of sealed windows (from the
// rotation ticker and from Close), before they are exported. Callbacks run
// on the sealing goroutine and must not block the pipeline for long.
func WithOnSeal(fn func([]Window)) SinkOption {
	return func(s *Sink) { s.onSeal = fn }
}

// NewSink builds a Sink over the engine. The caller keeps the engine
// handle for live inspection (Snapshot, the /rollups handler).
func NewSink(r *Rollup, opts ...SinkOption) *Sink {
	s := &Sink{r: r, format: FormatTSV}
	for _, opt := range opts {
		if opt != nil {
			opt(s)
		}
	}
	if s.rotateEvery > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.rotate()
	}
	return s
}

// Engine returns the underlying counter engine.
func (s *Sink) Engine() *Rollup { return s.r }

// WriteBatch attributes and observes every record. The whole batch lands
// on one engine shard, claimed round-robin and locked once — concurrent
// lane workers never touch the same shard, so the longer critical
// section amortizes the lock instead of contending (the attribution
// lookups held under it are read-only: a frozen table, an RLocked list).
// It never fails: rollups are counters, and export errors surface from
// the sealing path instead.
func (s *Sink) WriteBatch(_ context.Context, batch []core.CorrelatedFlow) error {
	if len(batch) == 0 {
		return nil
	}
	sh := s.r.shardFor(s.r.NextShard())
	// One handle load per batch: every record below is attributed against
	// the same immutable table and list even if a reload swaps mid-batch.
	var table *bgp.Table
	if s.table != nil {
		table = s.table.Load()
	}
	var list *dbl.List
	if s.list != nil {
		list = s.list.Load()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range batch {
		cf := &batch[i]
		key := Key{Service: cf.Name}
		if table != nil {
			key.ASN, _ = table.Lookup(cf.Flow.SrcIP)
		}
		if list != nil && cf.Name != "" {
			key.Category = list.Lookup(cf.Name)
		}
		sh.observe(s.r.windowStart(cf.Flow.Timestamp), key, cf.Flow.Bytes, cf.Flow.Packets)
	}
	return nil
}

// Flush implements core.Sink. Sealed windows are written and flushed as
// they seal, so there is no buffered state to push here.
func (s *Sink) Flush() error { return nil }

// Close stops the rotation ticker, seals every remaining window, exports
// it, and returns the first export error from the sink's lifetime. After
// Close the engine is drained; live inspection reads empty.
func (s *Sink) Close() error {
	s.closeOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			<-s.done
		}
		s.closeErr = errors.Join(s.sealErr, s.seal(s.r.SealAll()))
	})
	return s.closeErr
}

// rotate is the background sealing loop.
func (s *Sink) rotate() {
	defer close(s.done)
	ticker := time.NewTicker(s.rotateEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C:
			grace := s.rotateEvery
			if grace < minSealGrace {
				grace = minSealGrace
			}
			if err := s.seal(s.r.SealBefore(now.Add(-grace))); err != nil && s.sealErr == nil {
				s.sealErr = err
			}
		}
	}
}

// seal hands sealed windows to the callback and the export writer. Sealing
// is single-threaded by construction: the rotation goroutine owns it while
// running, and Close seals only after that goroutine has exited.
func (s *Sink) seal(windows []Window) error {
	if len(windows) == 0 {
		return nil
	}
	if s.onSeal != nil {
		s.onSeal(windows)
	}
	if s.out == nil {
		return nil
	}
	if s.format == FormatJSON {
		return WriteJSON(s.out, windows)
	}
	return WriteTSV(s.out, windows)
}

var _ core.Sink = (*Sink)(nil)

func init() {
	// Registry integration: "rollup" is selectable wherever the registered
	// sinks are (daemon config outputs, -sink flag). The registry build is
	// the plain variant — service-keyed windows at the default interval,
	// sealed windows exported as TSV to the configured output. Attributed
	// rollups (BGP table, blocklist, custom window, live snapshots) are
	// constructed explicitly with NewSink, as cmd/flowdns -rollup does.
	core.RegisterSink("rollup", true, func(o core.SinkOptions) (core.Sink, error) {
		if o.W == nil {
			return nil, errors.New("rollup: sink requires a writer")
		}
		return NewSink(New(DefaultWindow, DefaultShards),
			WithExport(o.W, FormatTSV),
			WithRotation(DefaultWindow)), nil
	})
}
