package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmap"
)

// Tier identifies which map generation satisfied a lookup (Algorithm 2's
// Active → Inactive → Long search order).
type Tier uint8

// Lookup tiers.
const (
	TierNone Tier = iota
	TierActive
	TierInactive
	TierLong
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierActive:
		return "active"
	case TierInactive:
		return "inactive"
	case TierLong:
		return "long"
	default:
		return "none"
	}
}

// store is one family of FlowDNS hashmaps, IP-NAME (a store[[16]byte]
// keyed by answer address) or NAME-CNAME (a store[string] keyed by name):
// per-split active/inactive/long generations plus the clear-up machinery of
// Algorithm 1. All methods are safe for concurrent use, and every one that
// takes a key takes its hash h with it: keyHash(key), the same value on
// every call for a key, as cmap.Map requires.
//
// Splits are laid out lane-major: the split index of a key is
// (laneOf(key) * perLane) + withinLane(key), with laneOf derived from the
// same hash the correlator uses to partition DNS records and flows onto
// lanes. Both route by the address the store is keyed by (a flow by its
// lookup address), so every split slice [lane*perLane, (lane+1)*perLane)
// is filled and read by exactly one lane's worker, and concurrent lane
// workers never contend on the same generation shards. LookupBoth's
// destination fallback is the one cross-lane read.
type store[K cmap.Key] struct {
	active   []*cmap.Map[K]
	inactive []*cmap.Map[K]
	long     []*cmap.Map[K]

	splits        int
	lanes         int // lane-major grouping of splits
	perLane       int // splits per lane; splits == lanes*perLane
	interval      time.Duration
	rotation      bool // keep an inactive generation on clear-up
	clearUp       bool // clear at all
	longEnabled   bool
	ttlThreshold  time.Duration // records with TTL >= this go to long
	exactTTL      bool
	sweepInterval time.Duration

	// lastClear / lastSweep hold the UnixNano of the record timestamp that
	// started the current generation; 0 means "not initialized yet".
	lastClear atomic.Int64
	lastSweep atomic.Int64
	rotateMu  sync.Mutex

	rotations atomic.Uint64
	sweeps    atomic.Uint64
	swept     atomic.Uint64
}

// storeConfig carries the subset of Config a store needs.
type storeConfig struct {
	splits        int
	lanes         int
	interval      time.Duration
	rotation      bool
	clearUp       bool
	longEnabled   bool
	exactTTL      bool
	sweepInterval time.Duration
	shardsPerMap  int
}

func newStore[K cmap.Key](sc storeConfig) *store[K] {
	if sc.splits < 1 {
		sc.splits = 1
	}
	if sc.lanes < 1 {
		sc.lanes = 1
	}
	if sc.shardsPerMap < 1 {
		sc.shardsPerMap = cmap.DefaultShardCount
	}
	// A single-split store (NAME-CNAME, the NoSplit ablation) cannot give
	// each lane its own slice; every lane shares split 0.
	if sc.splits == 1 {
		sc.lanes = 1
	}
	perLane := (sc.splits + sc.lanes - 1) / sc.lanes
	splits := sc.lanes * perLane
	s := &store[K]{
		splits:        splits,
		lanes:         sc.lanes,
		perLane:       perLane,
		interval:      sc.interval,
		rotation:      sc.rotation,
		clearUp:       sc.clearUp,
		longEnabled:   sc.longEnabled,
		ttlThreshold:  sc.interval,
		exactTTL:      sc.exactTTL,
		sweepInterval: sc.sweepInterval,
		active:        make([]*cmap.Map[K], splits),
		inactive:      make([]*cmap.Map[K], splits),
		long:          make([]*cmap.Map[K], splits),
	}
	for i := 0; i < splits; i++ {
		s.active[i] = cmap.NewWithShards[K](sc.shardsPerMap)
		s.inactive[i] = cmap.NewWithShards[K](sc.shardsPerMap)
		s.long[i] = cmap.NewWithShards[K](sc.shardsPerMap)
	}
	return s
}

// keyHash is the one hash every operation on a key derives its lane, split
// and shard from: ipHash for addresses, nameHash for names. The hot paths
// call the concrete function; this generic form serves the snapshot writer.
func keyHash[K cmap.Key](k *K) uint32 {
	if a, ok := any(k).(*[16]byte); ok {
		return ipHash(a)
	}
	return nameHash(*any(k).(*string))
}

// nameSeed keys nameHash. Placement only has to agree within one process
// (restore recomputes it), so one seed per process serves.
var nameSeed = maphash.MakeSeed()

// nameHash is a NAME-CNAME key's hash, which picks its shard. Every hop of
// the CNAME walk pays it, so it is the runtime's seeded hash: cmap.Hash's
// byte-at-a-time FNV costs several times as much per name.
func nameHash(name string) uint32 { return uint32(maphash.String(nameSeed, name)) }

// splitFor implements the paper's step-4 labeling lane-major: the low bits
// of the key hash select the lane (matching the correlator's flow
// partition), a golden-ratio remix selects the split within the lane's
// slice. Both put and get derive the index from the same key hash, so one
// hash per key serves lane routing, split labeling, and shard selection.
func (s *store[K]) splitFor(h uint32) int {
	if s.splits == 1 {
		return 0
	}
	lane := int(h % uint32(s.lanes))
	within := int((h * 0x9E3779B9 >> 8) % uint32(s.perLane))
	return lane*s.perLane + within
}

// put inserts one record per Algorithm 1: first advance the clear-up clock
// using the record's own timestamp, then place the record by TTL. The key
// is copied into the map, never retained.
func (s *store[K]) put(ts time.Time, ttl uint32, h uint32, key *K, value string) {
	s.maybeClearUp(ts)
	n := s.splitFor(h)
	if s.exactTTL {
		// Appendix A.8: every record carries its exact expiry, stored as a
		// typed field (no string encoding, no allocation); the sweep in
		// maybeSweep scans it back out. Everything lands in Active.
		s.maybeSweep(ts)
		s.active[n].Set(h, key, value, expiryOf(ts, ttl))
		return
	}
	if s.longEnabled && time.Duration(ttl)*time.Second >= s.ttlThreshold {
		s.long[n].Set(h, key, value, 0)
		return
	}
	s.active[n].Set(h, key, value, 0)
}

// putItems is the batched fill path: the clear-up clock advances once per
// batch (ts is the batch's latest record timestamp) and the items are
// grouped by destination split and shard, so each touched shard is locked
// once per batch instead of once per record. active receives
// Active-generation items (exact-TTL items carry their expiry in Item.Exp);
// long receives long-TTL items. sc is caller-owned reusable scratch.
func (s *store[K]) putItems(ts time.Time, active, long []cmap.Item[K], sc *dispatchScratch[K]) {
	s.maybeClearUp(ts)
	if s.exactTTL {
		s.maybeSweep(ts)
	}
	s.dispatchItems(s.active, active, sc)
	s.dispatchItems(s.long, long, sc)
}

// dispatchScratch is the reusable buffer set one dispatchItems call sorts
// through: per-item bucket keys, bucket counters, and the scattered item
// order. Owned by the fill worker (via fillBuf), so a steady-state batch
// allocates nothing.
type dispatchScratch[K cmap.Key] struct {
	keys   []int32
	counts []int32
	out    []cmap.Item[K]
}

// dispatchItems groups items by (split, shard) with a counting sort and
// hands each split's contiguous bucket range to that split's map in one
// SetItems call, whose shard-ordered runs then take each touched shard
// lock exactly once per batch. The sort is stable by construction —
// duplicate keys inside one batch keep their stream order, preserving
// last-write-wins (§4 accuracy overwrite semantics) — and O(n + buckets)
// with the bucket key computed once per item, a fraction of a comparison
// sort's cost on the per-batch path.
func (s *store[K]) dispatchItems(gen []*cmap.Map[K], items []cmap.Item[K], sc *dispatchScratch[K]) {
	n := len(items)
	if n == 0 {
		return
	}
	if n == 1 {
		gen[s.splitFor(items[0].Hash)].SetItems(items)
		return
	}
	m0 := gen[0] // all generation maps share one shard count
	shards := m0.ShardCount()
	buckets := s.splits * shards
	if cap(sc.counts) < buckets+1 {
		// counts carries a zeroed-between-calls invariant: it is allocated
		// zero and every call re-zeroes exactly the window it touched, so
		// a lane-local batch (which lands in one split's 32-bucket window)
		// never pays for the full bucket range.
		sc.counts = make([]int32, buckets+1)
	}
	counts := sc.counts[:buckets+1]
	if cap(sc.keys) < n {
		sc.keys = make([]int32, n)
	}
	keys := sc.keys[:n]
	if cap(sc.out) < n {
		sc.out = make([]cmap.Item[K], n)
	}
	out := sc.out[:n]
	minB, maxB := int32(buckets), int32(0)
	for i := range items {
		k := int32(s.splitFor(items[i].Hash)*shards + m0.ShardIndex(items[i].Hash))
		keys[i] = k
		counts[k+1]++
		if k < minB {
			minB = k
		}
		if k > maxB {
			maxB = k
		}
	}
	for b := minB + 1; b <= maxB; b++ {
		counts[b+1] += counts[b]
	}
	for i := range items {
		k := keys[i]
		out[counts[k]] = items[i]
		counts[k]++
	}
	// After the scatter, counts[k] is the end offset of bucket k (offsets
	// are relative to the window start, which is 0 because counts[minB]
	// was zero). A split's buckets are contiguous, so its range ends at
	// its last bucket's end.
	prevEnd := int32(0)
	firstSplit, lastSplit := int(minB)/shards, int(maxB)/shards
	for sp := firstSplit; sp <= lastSplit; sp++ {
		hi := int32((sp+1)*shards - 1)
		if hi > maxB {
			hi = maxB
		}
		end := counts[hi]
		if end > prevEnd {
			gen[sp].SetItems(out[prevEnd:end])
		}
		prevEnd = end
	}
	// Restore the zeroed invariant for the touched window only.
	clear(counts[minB : maxB+2])
}

// expiryOf computes a record's absolute expiry for exact-TTL mode.
func expiryOf(ts time.Time, ttl uint32) int64 {
	return ts.Add(time.Duration(ttl) * time.Second).UnixNano()
}

// get implements Algorithm 2's deepLookUp: Active, then Inactive, then Long.
// In exact-TTL mode the stored expiry is honoured: expired entries do not
// match (the paper's A.8 condition TTL_dns + Timestamp_dns < Timestamp_netflow).
// Generations that are empty (drained inactive/long maps, common outside
// rotation windows) are skipped with one atomic load instead of a locked
// probe. The probe never allocates and never retains key.
func (s *store[K]) get(now time.Time, h uint32, key *K) (string, Tier) {
	n := s.splitFor(h)
	if !s.active[n].Empty() {
		if v, exp, ok := s.active[n].Get(h, key); ok {
			if s.exactTTL {
				return s.checkExpiry(now, v, exp)
			}
			return v, TierActive
		}
	}
	if !s.inactive[n].Empty() {
		if v, _, ok := s.inactive[n].Get(h, key); ok {
			return v, TierInactive
		}
	}
	if !s.long[n].Empty() {
		if v, _, ok := s.long[n].Get(h, key); ok {
			return v, TierLong
		}
	}
	return "", TierNone
}

// checkExpiry resolves an exact-TTL Active-generation hit against the typed
// expiry: two integer loads and one compare, replacing the per-hit string
// split + strconv parse of the former "value\x00unixNano" encoding. The
// paper's A.8 condition (TTL_dns + Timestamp_dns < Timestamp_netflow) keeps
// its boundary: a record expiring exactly at the flow timestamp still
// matches. Entries without an expiry (exp 0 — memoized writes) read as
// already expired, exactly as the string encoding resolved them.
func (s *store[K]) checkExpiry(now time.Time, v string, exp int64) (string, Tier) {
	if now.UnixNano() > exp {
		return "", TierNone
	}
	return v, TierActive
}

// empty reports whether a single-split store (NAME-CNAME) holds nothing —
// no CNAMEs seen yet, or all generations cleared — with three atomic loads,
// so the per-flow CNAME walk can stop before hashing a name. It is false
// for a store with more than one split.
func (s *store[K]) empty() bool {
	return s.splits == 1 && s.active[0].Empty() && s.inactive[0].Empty() && s.long[0].Empty()
}

// memoize writes a resolved multi-hop result back into the Active maps
// (§3.3 step 7) without advancing the clear-up clock: the memo entry's
// lifetime belongs to the current generation.
func (s *store[K]) memoize(h uint32, key *K, value string) {
	s.active[s.splitFor(h)].Set(h, key, value, 0)
}

// maybeClearUp rotates (or clears) every split once interval has elapsed on
// the record clock. Only one goroutine performs the rotation; the check is
// cheap for everyone else.
func (s *store[K]) maybeClearUp(ts time.Time) {
	if !s.clearUp || s.exactTTL {
		return
	}
	last := s.lastClear.Load()
	if last == 0 {
		// First record initializes the generation clock.
		s.lastClear.CompareAndSwap(0, ts.UnixNano())
		return
	}
	if ts.UnixNano()-last < int64(s.interval) {
		return
	}
	s.rotateMu.Lock()
	defer s.rotateMu.Unlock()
	last = s.lastClear.Load()
	if ts.UnixNano()-last < int64(s.interval) {
		return // someone else rotated while we waited
	}
	for i := range s.active {
		if s.rotation {
			s.active[i].Snapshot(s.inactive[i])
		} else {
			s.active[i].Clear()
		}
	}
	s.lastClear.Store(ts.UnixNano())
	s.rotations.Add(1)
}

// maybeSweep runs the exact-TTL scan-based expiry (Appendix A.8's "regular
// process to clear-up the expired DNS records"). It write-locks every shard
// of every split while scanning — the contention the paper blames for the
// >90 % loss rate.
func (s *store[K]) maybeSweep(ts time.Time) {
	last := s.lastSweep.Load()
	if last == 0 {
		s.lastSweep.CompareAndSwap(0, ts.UnixNano())
		return
	}
	if ts.UnixNano()-last < int64(s.sweepInterval) {
		return
	}
	if !s.lastSweep.CompareAndSwap(last, ts.UnixNano()) {
		return // another worker is sweeping
	}
	removed := 0
	now := ts.UnixNano()
	for i := range s.active {
		removed += s.active[i].RemoveIfExpired(now)
	}
	s.sweeps.Add(1)
	s.swept.Add(uint64(removed))
}

// size returns total entries across all generations and splits.
func (s *store[K]) size() int {
	n := 0
	for i := range s.active {
		n += s.active[i].Len() + s.inactive[i].Len() + s.long[i].Len()
	}
	return n
}
