package core

import (
	"maps"
	"sync"
	"sync/atomic"
)

// defaultInternCap bounds one interner's table. ISP resolver traffic is
// heavy-tailed: a small set of CDN/service names covers almost all answer
// records, so a six-figure table holds the working set with room to spare
// while bounding the worst case (uncacheable random-label floods).
const defaultInternCap = 1 << 17

// internPromoteMin is the smallest delta size that triggers promotion into
// the frozen table.
const internPromoteMin = 64

// interner deduplicates the query/answer name strings the FillUp step
// stores. Millions of IP-NAME entries point at the same few thousand
// CDN/service names; without interning every ingested record keeps its own
// decoder-allocated copy alive in the store, so the heap carries one string
// per entry instead of one per distinct name. Interning makes every entry
// for the same name share one backing string: the per-record decode copy
// dies young (cheap, collected in the next minor GC) and the store's
// retained bytes shrink by the duplication factor — the StoreSizes/heap
// win the fill-path redesign targets.
//
// The layout is read-mostly, mirroring the traffic: a frozen map reached
// through an atomic pointer serves the steady state — one pointer load and
// one probe, no lock, no shared-cache-line writes — while a small locked
// delta map absorbs new names and is periodically promoted (merged into a
// fresh frozen map). The table is a cache, not a registry: when it reaches
// capacity it resets and rebuilds from live traffic. Entries already
// stored keep their strings (the store's map values hold them live); only
// future sharing restarts from empty. Each lane owns one interner, so
// cross-lane duplication is bounded by the lane count.
type interner struct {
	frozen atomic.Pointer[map[string]string]

	mu    sync.Mutex
	delta map[string]string
	cap   int
}

func newInterner(capacity int) *interner {
	if capacity < 1 {
		capacity = defaultInternCap
	}
	in := &interner{delta: make(map[string]string, internPromoteMin), cap: capacity}
	frozen := make(map[string]string)
	in.frozen.Store(&frozen)
	return in
}

// intern returns the canonical copy of s, installing s itself when the
// name is new. The steady-state hit is one lock-free probe of the frozen
// table — no allocation, no atomic read-modify-write.
func (in *interner) intern(s string) string {
	if s == "" {
		return s
	}
	frozen := *in.frozen.Load()
	if v, ok := frozen[s]; ok {
		return v
	}
	in.mu.Lock()
	if v, ok := in.delta[s]; ok {
		in.mu.Unlock()
		return v
	}
	in.delta[s] = s
	if total := len(frozen) + len(in.delta); total > in.cap {
		// Full: reset both tables and rebuild from live traffic.
		empty := make(map[string]string)
		in.frozen.Store(&empty)
		in.delta = make(map[string]string, internPromoteMin)
	} else if len(in.delta) >= internPromoteMin && len(in.delta) >= len(frozen)/4 {
		// Promote: merge the delta into a fresh frozen table. The growth
		// threshold is geometric, so promotion cost amortizes to O(1) per
		// distinct name.
		next := make(map[string]string, total)
		maps.Copy(next, frozen)
		maps.Copy(next, in.delta)
		in.frozen.Store(&next)
		in.delta = make(map[string]string, internPromoteMin)
	}
	in.mu.Unlock()
	return s
}

// size reports the current table population (test/metrics hook).
func (in *interner) size() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(*in.frozen.Load()) + len(in.delta)
}
