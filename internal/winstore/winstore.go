package winstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/rollup"
)

// Defaults for the store's tunables.
const (
	// DefaultPartDur is the partition interval: one segment file per hour
	// of sealed windows (60 one-minute windows per file at the default
	// rollup rotation).
	DefaultPartDur = time.Hour
	// DefaultCompactAfter is how long after a partition's interval has
	// passed before it is compacted — late partials (NetFlow exports trail
	// flow start by the active timeout) have stopped arriving by then.
	DefaultCompactAfter = 10 * time.Minute
	// DefaultMaintainEvery is the background maintenance cadence
	// (compaction + retention sweeps).
	DefaultMaintainEvery = time.Minute
)

// Config controls a Store. Only Dir is required.
type Config struct {
	// Dir is the partition directory; created if missing.
	Dir string
	// PartDur is the partition interval (whole seconds, minimum 1 s);
	// 0 = DefaultPartDur.
	PartDur time.Duration
	// Retention bounds how far back partitions are kept: a partition whose
	// interval ends more than Retention before the maintenance clock is
	// deleted atomically. 0 keeps everything.
	Retention time.Duration
	// CompactAfter is how long after a partition's interval ends before
	// its windows are compacted (partials merged into one canonical window
	// per interval). 0 = DefaultCompactAfter; negative disables compaction.
	CompactAfter time.Duration
	// MaintainEvery is the Serve loop's sweep cadence; 0 = default.
	MaintainEvery time.Duration
}

// normalized fills unset fields.
func (c Config) normalized() Config {
	if c.PartDur <= 0 {
		c.PartDur = DefaultPartDur
	}
	c.PartDur = c.PartDur.Round(time.Second)
	if c.PartDur < time.Second {
		c.PartDur = time.Second
	}
	if c.CompactAfter == 0 {
		c.CompactAfter = DefaultCompactAfter
	}
	if c.MaintainEvery <= 0 {
		c.MaintainEvery = DefaultMaintainEvery
	}
	return c
}

// Stats is a point-in-time snapshot of the store's state and lifetime
// counters, exported on /metrics.
type Stats struct {
	Partitions int   // partitions in the index
	Compacted  int   // partitions already compacted
	Windows    int   // windows held across all partitions
	Rows       int   // rows held across all windows
	DiskBytes  int64 // bytes across all segment files

	WindowsPersisted uint64 // sealed windows accepted by Add
	SegmentWrites    uint64 // successful segment file writes
	WriteErrors      uint64 // failed segment file writes
	Compactions      uint64 // partitions compacted
	RetentionDeletes uint64 // partitions deleted by retention
	LoadErrors       uint64 // partitions opened with a damaged tail
}

// partition is one PartDur interval of the index: its windows in arrival
// order (compaction canonicalizes them to one per interval) plus the
// persistence state of its segment file.
type partition struct {
	start     int64 // unix seconds, PartDur-aligned
	windows   []rollup.Window
	compacted bool
	dirty     bool // in-memory state ahead of the segment file
	diskBytes int64
}

// Store is a time-partitioned on-disk store of sealed rollup windows.
// Construct with Open; all methods are safe for concurrent use. Reads are
// served from the in-memory partition index — the disk is durability, not
// the read path.
type Store struct {
	cfg Config

	mu    sync.RWMutex
	parts map[int64]*partition

	onInvalidate []func(from, to time.Time)

	windowsPersisted atomic.Uint64
	segmentWrites    atomic.Uint64
	writeErrors      atomic.Uint64
	compactions      atomic.Uint64
	retentionDeletes atomic.Uint64
	loadErrors       atomic.Uint64
}

// Open creates or reopens the store at cfg.Dir, loading every segment file
// into the partition index. A segment with a damaged tail contributes its
// validated prefix (counted in Stats.LoadErrors) — a torn write never
// prevents the store from opening.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.normalized()
	if cfg.Dir == "" {
		return nil, errors.New("winstore: no directory configured")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("winstore: %w", err)
	}
	// Temporary files a killed writer left behind are never read and never
	// retired by retention: remove them before any writer starts.
	if err := frame.RemoveTemps(cfg.Dir, func(base string) bool { return filepath.Ext(base) == ".seg" }); err != nil {
		return nil, fmt.Errorf("winstore: %w", err)
	}
	s := &Store{cfg: cfg, parts: make(map[int64]*partition)}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("winstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".seg" {
			continue
		}
		path := filepath.Join(cfg.Dir, name)
		seg, err := ReadSegmentFile(path)
		if err != nil {
			s.loadErrors.Add(1)
			if seg == nil || len(seg.Windows) == 0 {
				continue // nothing validated: leave the file for inspection
			}
			// Partial prefix: keep what validated and rewrite the file so
			// the damage is not re-read forever.
		}
		p := s.parts[seg.Start.Unix()]
		if p == nil {
			p = &partition{start: seg.Start.Unix(), compacted: seg.Compacted}
			s.parts[p.start] = p
		}
		p.windows = append(p.windows, seg.Windows...)
		p.dirty = err != nil
		if fi, serr := os.Stat(path); serr == nil {
			p.diskBytes = fi.Size()
		}
	}
	// Rewrite any partition recovered from a damaged file, so the next
	// open reads a clean segment.
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, p := range s.parts {
		if p.dirty {
			errs = append(errs, s.persistLocked(p))
		}
	}
	return s, errors.Join(errs...)
}

// Dir returns the partition directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// PartDur returns the partition interval in effect.
func (s *Store) PartDur() time.Duration { return s.cfg.PartDur }

// OnInvalidate registers fn to be called with the time range of every
// partition whose contents change (new windows, compaction, retention
// deletion) — the query cache's invalidation feed. Callbacks run outside
// the store's locks, after the mutation is visible.
func (s *Store) OnInvalidate(fn func(from, to time.Time)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.onInvalidate = append(s.onInvalidate, fn)
	s.mu.Unlock()
}

// notify fires the invalidation callbacks for the given partition starts.
func (s *Store) notify(starts []int64) {
	if len(starts) == 0 {
		return
	}
	s.mu.RLock()
	fns := s.onInvalidate
	s.mu.RUnlock()
	for _, start := range starts {
		from := time.Unix(start, 0).UTC()
		to := from.Add(s.cfg.PartDur)
		for _, fn := range fns {
			fn(from, to)
		}
	}
}

// partStart aligns t down to its partition boundary.
func (s *Store) partStart(t time.Time) int64 {
	psecs := int64(s.cfg.PartDur / time.Second)
	u := t.Unix()
	m := u % psecs
	if m < 0 {
		m += psecs
	}
	return u - m
}

// segPath is the partition's segment file path.
func (s *Store) segPath(start int64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("part-%d-%d.seg", start, int64(s.cfg.PartDur/time.Second)))
}

// Add routes sealed windows into their partitions and persists every
// touched partition's segment file atomically. It is the rollup sink's
// OnSeal target. A failed write keeps the windows in memory and the
// partition dirty, so the next Add (or Close) retries; the error reports
// every failed partition.
func (s *Store) Add(windows []rollup.Window) error {
	if len(windows) == 0 {
		return nil
	}
	s.mu.Lock()
	touched := make(map[int64]*partition)
	for i := range windows {
		w := windows[i]
		start := s.partStart(w.Start)
		p := s.parts[start]
		if p == nil {
			p = &partition{start: start}
			s.parts[start] = p
		}
		p.windows = append(p.windows, w)
		// New partials re-open the partition: compaction must run again
		// before the one-window-per-interval invariant holds.
		p.compacted = false
		p.dirty = true
		touched[start] = p
	}
	s.windowsPersisted.Add(uint64(len(windows)))
	var errs []error
	starts := make([]int64, 0, len(touched))
	for start, p := range touched {
		if err := s.persistLocked(p); err != nil {
			errs = append(errs, err)
		}
		starts = append(starts, start)
	}
	s.mu.Unlock()
	s.notify(starts)
	return errors.Join(errs...)
}

// persistLocked writes p's segment file; callers hold s.mu.
func (s *Store) persistLocked(p *partition) error {
	seg := &Segment{
		Start:     time.Unix(p.start, 0).UTC(),
		Dur:       s.cfg.PartDur,
		Compacted: p.compacted,
		Windows:   p.windows,
	}
	path := s.segPath(p.start)
	if err := WriteSegmentFile(path, seg); err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("winstore: partition %d: %w", p.start, err)
	}
	p.dirty = false
	s.segmentWrites.Add(1)
	if fi, err := os.Stat(path); err == nil {
		p.diskBytes = fi.Size()
	}
	return nil
}

// Query returns every stored window overlapping [from, to), partials
// merged per interval and the result sorted by window start — the same
// canonical shape rollup.SealBefore produces. The returned windows are
// never mutated by the store; callers must treat them as read-only.
func (s *Store) Query(from, to time.Time) []rollup.Window {
	s.mu.RLock()
	var hits []rollup.Window
	for _, p := range s.parts {
		for i := range p.windows {
			w := &p.windows[i]
			if w.Start.Before(to) && w.Start.Add(w.Dur).After(from) {
				hits = append(hits, *w)
			}
		}
	}
	s.mu.RUnlock()
	return CompactWindows(hits)
}

// CompactWindows merges window partials per interval: every group of
// windows sharing a start time collapses into its rollup.MergeAll, and the
// result is sorted by start. Totals are preserved and the result is
// independent of input order and grouping — the rollup merge laws, proven
// by this package's property tests.
func CompactWindows(windows []rollup.Window) []rollup.Window {
	if len(windows) == 0 {
		return nil
	}
	byStart := make(map[int64][]rollup.Window)
	for _, w := range windows {
		byStart[w.Start.Unix()] = append(byStart[w.Start.Unix()], w)
	}
	out := make([]rollup.Window, 0, len(byStart))
	for _, group := range byStart {
		if len(group) == 1 {
			out = append(out, group[0])
			continue
		}
		out = append(out, rollup.MergeAll(group))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// CompactBefore compacts every uncompacted partition whose interval ended
// at or before cutoff: partials merge into one canonical window per
// interval and the segment file is rewritten with the compacted flag.
// Returns how many partitions were compacted.
func (s *Store) CompactBefore(cutoff time.Time) (int, error) {
	limit := cutoff.Unix()
	psecs := int64(s.cfg.PartDur / time.Second)
	s.mu.Lock()
	var errs []error
	var starts []int64
	n := 0
	for start, p := range s.parts {
		if p.compacted || start+psecs > limit {
			continue
		}
		p.windows = CompactWindows(p.windows)
		p.compacted = true
		p.dirty = true
		if err := s.persistLocked(p); err != nil {
			errs = append(errs, err)
		}
		s.compactions.Add(1)
		starts = append(starts, start)
		n++
	}
	s.mu.Unlock()
	s.notify(starts)
	return n, errors.Join(errs...)
}

// EnforceRetention deletes every partition whose interval ended more than
// the configured retention before now — file first, then the index entry,
// so a crash between the two re-deletes on the next sweep rather than
// resurrecting data. Returns how many partitions were deleted.
func (s *Store) EnforceRetention(now time.Time) (int, error) {
	if s.cfg.Retention <= 0 {
		return 0, nil
	}
	limit := now.Add(-s.cfg.Retention).Unix()
	psecs := int64(s.cfg.PartDur / time.Second)
	s.mu.Lock()
	var errs []error
	var starts []int64
	n := 0
	for start := range s.parts {
		if start+psecs > limit {
			continue
		}
		if err := os.Remove(s.segPath(start)); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, fmt.Errorf("winstore: retention: %w", err))
			continue // keep the index entry; the next sweep retries
		}
		delete(s.parts, start)
		s.retentionDeletes.Add(1)
		starts = append(starts, start)
		n++
	}
	s.mu.Unlock()
	s.notify(starts)
	return n, errors.Join(errs...)
}

// Maintain runs one compaction + retention sweep at the given clock.
func (s *Store) Maintain(now time.Time) error {
	var errs []error
	if s.cfg.CompactAfter >= 0 {
		if _, err := s.CompactBefore(now.Add(-s.cfg.CompactAfter)); err != nil {
			errs = append(errs, err)
		}
	}
	if _, err := s.EnforceRetention(now); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Name implements core.Service.
func (s *Store) Name() string { return "winstore" }

// Serve runs the background maintenance loop (compaction and retention on
// the MaintainEvery cadence) until ctx is done, then flushes any dirty
// partition. It implements core.Service so the daemon runs it under the
// pipeline lifecycle.
func (s *Store) Serve(ctx context.Context) error {
	ticker := time.NewTicker(s.cfg.MaintainEvery)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			if err := s.Maintain(now); err != nil {
				// Sweep errors are retried next tick; they surface through
				// Stats.WriteErrors rather than killing the maintenance loop.
				continue
			}
		case <-ctx.Done():
			return s.Close()
		}
	}
}

// Close flushes every dirty partition. The store stays readable (Close is
// idempotent); it exists so a failed Add's windows are not lost when the
// process exits cleanly.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, p := range s.parts {
		if p.dirty {
			errs = append(errs, s.persistLocked(p))
		}
	}
	return errors.Join(errs...)
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Partitions:       len(s.parts),
		WindowsPersisted: s.windowsPersisted.Load(),
		SegmentWrites:    s.segmentWrites.Load(),
		WriteErrors:      s.writeErrors.Load(),
		Compactions:      s.compactions.Load(),
		RetentionDeletes: s.retentionDeletes.Load(),
		LoadErrors:       s.loadErrors.Load(),
	}
	for _, p := range s.parts {
		if p.compacted {
			st.Compacted++
		}
		st.Windows += len(p.windows)
		for i := range p.windows {
			st.Rows += len(p.windows[i].Rows)
		}
		st.DiskBytes += p.diskBytes
	}
	s.mu.RUnlock()
	return st
}

// Bounds returns the time extent of the stored windows (zero times when
// the store is empty) — the health endpoint's coverage report.
func (s *Store) Bounds() (oldest, newest time.Time) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.parts {
		for i := range p.windows {
			w := &p.windows[i]
			if oldest.IsZero() || w.Start.Before(oldest) {
				oldest = w.Start
			}
			if end := w.Start.Add(w.Dur); end.After(newest) {
				newest = end
			}
		}
	}
	return oldest, newest
}
