// Package cmap provides a sharded, thread-safe hash map keyed by either the
// 16-byte canonical address form or a DNS name.
//
// It is a standard-library-only replacement for the orcaman/concurrent-map
// module that the FlowDNS paper uses for its internal DNS storage. The map
// is divided into a fixed number of shards, each guarded by its own
// sync.RWMutex, so that concurrent readers and writers touching different
// shards never contend. FlowDNS performs millions of Get/Set operations per
// second across many goroutines; per-shard locking is the property the paper
// calls out as the enabler of "high-performance concurrent reads and writes
// by sharding the map".
//
// Both of the paper's map families (Table 1) use the one table type: IP-NAME
// is a Map[[16]byte] keyed by answer address, NAME-CNAME a Map[string]
// keyed by name. Each shard is an open-addressed table (oatable.go) with the
// (value, expiry) payload inline in its slot array.
package cmap

import (
	"sync"
	"sync/atomic"
)

// DefaultShardCount is the number of shards used by New. 32 matches the
// upstream concurrent-map default.
const DefaultShardCount = 32

// Key is the set of key types a Map holds: the correlator's 16-byte
// canonical address form and DNS names.
type Key interface{ [16]byte | string }

// Map is a sharded concurrent map from keys to typed entries: a string
// value plus an optional expiry instant (UnixNano; 0 = never expires). The
// expiry rides inline in the slot, so exact-TTL mode stores it with one
// field write and reads it back with one field load.
//
// Every operation takes the caller's hash h of the key, which selects the
// shard only; inside the shard each key type hashes itself for the probe.
// A caller must pass the same h for a key on every operation.
//
// The zero value is not usable; construct with New or NewWithShards.
type Map[K Key] struct {
	shards []*shard[K]
	mask   uint32 // len(shards)-1 when power of two; otherwise 0 and mod is used

	// count tracks the total number of entries. It is updated while the
	// owning shard's lock is held but read without any lock by Empty; a
	// reader racing a concurrent insert may briefly observe the
	// pre-insert value, which callers using Empty as a probe-skipping
	// fast path must tolerate (the probe they skip would have raced the
	// same insert anyway).
	count atomic.Int64
}

type shard[K Key] struct {
	mu sync.RWMutex
	t  table[K]
}

// Item is one record of a batched insert (SetItems) and of a shard copy
// (AppendShard): the caller's shard hash, the key, the value, and an
// optional expiry (UnixNano; 0 = none).
type Item[K Key] struct {
	Hash  uint32
	Key   K
	Value string
	Exp   int64
}

// New returns an address-keyed Map with DefaultShardCount shards.
func New() *Map[[16]byte] { return NewWithShards[[16]byte](DefaultShardCount) }

// NewWithShards returns a Map with n shards. n must be >= 1; values that are
// not powers of two are supported but pay a modulo on every access.
func NewWithShards[K Key](n int) *Map[K] {
	if n < 1 {
		n = 1
	}
	m := &Map[K]{shards: make([]*shard[K], n)}
	if n&(n-1) == 0 {
		m.mask = uint32(n - 1)
	}
	for i := range m.shards {
		m.shards[i] = new(shard[K])
	}
	return m
}

// Hash returns the 32-bit FNV-1a hash of key, inlined to avoid the hash/fnv
// allocation of a hash.Hash32 per call. The correlator uses it to pick the
// shard of a name and the lane of a CNAME record, and the forwarder's
// consistent-hash ring to place its points.
func Hash(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// ShardIndex returns the shard a hash maps to. Batch callers (SetItems)
// pre-group their items by this index so that every group is inserted under
// one lock acquisition.
func (m *Map[K]) ShardIndex(h uint32) int {
	// Fold the high bits in before masking: callers above (the
	// correlator's store) carve lane and split indices out of the low
	// bits of this same hash, so every key reaching one map shares those
	// low bits. Without the fold a map in an 8-lane store would use only
	// gcd(8,32)⁻¹ of its shards.
	h ^= h >> 16
	if m.mask != 0 || len(m.shards) == 1 {
		return int(h & m.mask)
	}
	return int(h % uint32(len(m.shards)))
}

// Set stores (value, exp) under key, replacing any previous entry. The key
// is copied into the slot, never retained; neither an insert into a table
// with room nor an overwrite allocates.
func (m *Map[K]) Set(h uint32, key *K, value string, exp int64) {
	s := m.shards[m.ShardIndex(h)]
	s.mu.Lock()
	if s.t.set(key, value, exp) {
		m.count.Add(1)
	}
	s.mu.Unlock()
}

// Get returns the value and expiry stored under key and whether it was
// present. It never allocates and never retains key.
func (m *Map[K]) Get(h uint32, key *K) (string, int64, bool) {
	s := m.shards[m.ShardIndex(h)]
	s.mu.RLock()
	v, exp, ok := s.t.get(key)
	s.mu.RUnlock()
	return v, exp, ok
}

// SetBytesHash is Set without an expiry for a key given as bytes (16 of
// them for an address-keyed Map). Kept for bench/flowbench until ROADMAP
// 13(c).
func (m *Map[K]) SetBytesHash(h uint32, key []byte, value string) {
	k := K(key)
	m.Set(h, &k, value, 0)
}

// GetBytesHash is Get for a key given as bytes, without the expiry. Kept
// for bench/flowbench until ROADMAP 13(c).
func (m *Map[K]) GetBytesHash(h uint32, key []byte) (string, bool) {
	k := K(key)
	v, _, ok := m.Get(h, &k)
	return v, ok
}

// SetItems performs a batched insert: consecutive items that map to the
// same shard are stored under a single lock acquisition. Callers that
// pre-sort items by ShardIndex(Hash) get one acquisition per touched shard
// per batch — the lane workers' amortized fill path.
func (m *Map[K]) SetItems(items []Item[K]) {
	for i := 0; i < len(items); {
		si := m.ShardIndex(items[i].Hash)
		s := m.shards[si]
		s.mu.Lock()
		j := i
		for ; j < len(items) && m.ShardIndex(items[j].Hash) == si; j++ {
			if s.t.set(&items[j].Key, items[j].Value, items[j].Exp) {
				m.count.Add(1)
			}
		}
		s.mu.Unlock()
		i = j
	}
}

// Empty reports whether the map holds no entries, without taking any lock.
// It is a fast path for skipping probes of drained generations; a reader
// racing a concurrent insert may see true until the insert's count update
// lands, exactly as a probe racing that insert could miss the entry.
func (m *Map[K]) Empty() bool { return m.count.Load() == 0 }

// Len returns the total number of entries across all shards. The result is a
// point-in-time aggregate: concurrent mutations may be partially reflected.
func (m *Map[K]) Len() int {
	n := 0
	for _, s := range m.shards {
		s.mu.RLock()
		n += s.t.len()
		s.mu.RUnlock()
	}
	return n
}

// Clear removes all entries, dropping each shard's slot array so the memory
// of a large previous generation becomes collectible immediately; this is
// the operation FlowDNS issues on every clear-up interval.
func (m *Map[K]) Clear() {
	for _, s := range m.shards {
		s.mu.Lock()
		m.count.Add(-int64(s.t.len()))
		s.t.reset()
		s.mu.Unlock()
	}
}

// AppendShard appends every entry of shard i to dst as Items (Hash left
// zero — the shard-selection hash is the caller's choice and must be
// recomputed on re-insert) and returns the extended slice. Keys are held
// inline in the Items, never aliases of map storage. Only shard i is
// read-locked, and only for the duration of the copy: iterating a map shard
// by shard (the snapshot writer's loop) blocks concurrent writers to one
// stripe at a time instead of freezing the whole map.
func (m *Map[K]) AppendShard(i int, dst []Item[K]) []Item[K] {
	s := m.shards[i]
	s.mu.RLock()
	s.t.iterate(func(sl *slot[K]) {
		dst = append(dst, Item[K]{Key: sl.key, Value: sl.v, Exp: sl.exp})
	})
	s.mu.RUnlock()
	return dst
}

// RemoveIf deletes every entry for which pred returns true and returns the
// number of removed entries. pred receives the key, the value and the stored
// expiry (UnixNano; 0 = none); it must not retain the key pointer. It
// write-locks each shard for the duration of that shard's scan.
func (m *Map[K]) RemoveIf(pred func(key *K, value string, exp int64) bool) int {
	removed := 0
	for _, s := range m.shards {
		s.mu.Lock()
		n := s.t.removeIf(func(sl *slot[K]) bool { return pred(&sl.key, sl.v, sl.exp) })
		m.count.Add(-int64(n))
		removed += n
		s.mu.Unlock()
	}
	return removed
}

// RemoveIfExpired deletes every entry whose stored expiry is strictly before
// now (now > exp, matching the lookup path's boundary), returning the number
// removed. It is the exact-TTL sweep primitive (paper Appendix A.8) and
// allocates nothing. Entries with exp 0 ("never expires" — memoized writes)
// are removed too, mirroring how the lookup path reads them in exact-TTL
// mode. Like RemoveIf it write-locks each shard for its scan, which is
// precisely the contention the paper observed degrading the system.
func (m *Map[K]) RemoveIfExpired(now int64) int {
	removed := 0
	for _, s := range m.shards {
		s.mu.Lock()
		n := s.t.removeIf(func(sl *slot[K]) bool { return now > sl.exp })
		m.count.Add(-int64(n))
		removed += n
		s.mu.Unlock()
	}
	return removed
}

// ShardCount returns the number of shards.
func (m *Map[K]) ShardCount() int { return len(m.shards) }

// Snapshot atomically (per shard) moves the contents of m into dst and
// clears m. It implements FlowDNS buffer rotation: "copy the contents of the
// active hashmaps into the inactive hashmap and clear up the active
// hashmap". dst's previous contents are discarded. Tables are handed over
// by value swap, making rotation O(shards) instead of O(entries), so both
// maps must have the same shard count — the store builds every generation
// with one count, and entries addressed by a caller-supplied hash would
// land in the wrong shard under any re-hash; a mismatch panics.
func (m *Map[K]) Snapshot(dst *Map[K]) {
	if dst == nil {
		return
	}
	if len(dst.shards) != len(m.shards) {
		panic("cmap: Snapshot between maps of different shard counts")
	}
	for i, s := range m.shards {
		d := dst.shards[i]
		s.mu.Lock()
		d.mu.Lock()
		dst.count.Add(int64(s.t.len() - d.t.len()))
		m.count.Add(-int64(s.t.len()))
		d.t = s.t
		s.t.reset()
		d.mu.Unlock()
		s.mu.Unlock()
	}
}
