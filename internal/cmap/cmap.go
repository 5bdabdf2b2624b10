// Package cmap provides a sharded, thread-safe string-keyed hash map.
//
// It is a standard-library-only replacement for the orcaman/concurrent-map
// module that the FlowDNS paper uses for its internal DNS storage. The map
// is divided into a fixed number of shards, each guarded by its own
// sync.RWMutex, so that concurrent readers and writers touching different
// shards never contend. FlowDNS performs millions of Get/Set operations per
// second across many goroutines; per-shard locking is the property the paper
// calls out as the enabler of "high-performance concurrent reads and writes
// by sharding the map".
package cmap

import (
	"sync"
	"sync/atomic"
)

// DefaultShardCount is the number of shards used by New. 32 matches the
// upstream concurrent-map default.
const DefaultShardCount = 32

// Map is a sharded concurrent map from string keys to typed entries: a
// string value plus an optional expiry instant. FlowDNS stores DNS
// answer→query mappings, so both sides are strings; keeping the value type
// concrete avoids interface boxing on the hot path. The expiry rides inline
// in the map bucket — exact-TTL mode stores it with one field write instead
// of the former "value\x00unixNano" string concatenation, and reads it back
// with one field load instead of a strconv parse per hit.
//
// The zero value is not usable; construct with New or NewWithShards.
type Map struct {
	shards []*shard
	mask   uint32 // len(shards)-1 when power of two; otherwise 0 and mod is used

	// count tracks the total number of entries. It is updated while the
	// owning shard's lock is held but read without any lock by Empty; a
	// reader racing a concurrent insert may briefly observe the
	// pre-insert value, which callers using Empty as a probe-skipping
	// fast path must tolerate (the probe they skip would have raced the
	// same insert anyway).
	count atomic.Int64
}

type shard struct {
	mu sync.RWMutex
	m  map[string]entry
	// mb is the binary key space: 16-byte keys (the correlator's canonical
	// IP form) live in a purpose-built open-addressed table (oatable.go)
	// with the (value, expiry) payload inline in the slot array, so both
	// inserting and overwriting are a short linear probe with zero
	// allocations — the property the allocation-free FillUp path rests on —
	// and expiry sweeps are a single tombstone-free pass. Binary and string
	// keys are separate namespaces: a 16-byte key never matches a string
	// entry (the correlator's IP-NAME store is exclusively binary-keyed,
	// its NAME-CNAME store exclusively string-keyed).
	mb table
}

// ipKey is the binary key type: the 16-byte canonical address form.
type ipKey = [16]byte

// entry is the typed map value: the stored string plus an optional expiry
// (UnixNano; 0 = never expires). Storing the pair inline avoids the alloc
// of encoding the expiry into the value string on every put and the parse
// of decoding it on every hit.
type entry struct {
	v   string
	exp int64
}

// Item is one record of a batched insert (SetItems): a pre-computed Hash,
// the key bytes (copied only on insert, never retained), the value, and an
// optional expiry (UnixNano; 0 = none).
type Item struct {
	Hash  uint32
	Key   []byte
	Value string
	Exp   int64
}

// New returns a Map with DefaultShardCount shards.
func New() *Map { return NewWithShards(DefaultShardCount) }

// NewWithShards returns a Map with n shards. n must be >= 1; values that are
// not powers of two are supported but pay a modulo on every access.
func NewWithShards(n int) *Map {
	if n < 1 {
		n = 1
	}
	m := &Map{shards: make([]*shard, n)}
	if n&(n-1) == 0 {
		m.mask = uint32(n - 1)
	}
	for i := range m.shards {
		m.shards[i] = &shard{m: make(map[string]entry)}
	}
	return m
}

// fnv32 is the 32-bit FNV-1a hash, inlined to avoid the hash/fnv
// allocation of a hash.Hash32 per call. One generic body serves string
// and byte-slice keys, so the two forms can never drift apart.
func fnv32[T ~string | ~[]byte](key T) uint32 {
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

// Hash returns the hash this map family uses for shard selection. Callers
// that address several maps with the same key (the correlator's
// active/inactive/long generations) compute it once and pass it to the
// *Hash method variants, paying for one hash instead of one per probe.
func Hash(key string) uint32 { return fnv32(key) }

// HashBytes is Hash for a byte-slice key. It never retains key and returns
// the same value Hash returns for the equivalent string, so byte-keyed
// lookups find entries stored with string keys.
func HashBytes(key []byte) uint32 { return fnv32(key) }

func (m *Map) shardForHash(h uint32) *shard {
	// Fold the high bits in before masking: callers above (the
	// correlator's store) carve lane and split indices out of the low
	// bits of this same hash, so every key reaching one map shares those
	// low bits. Without the fold a map in an 8-lane store would use only
	// gcd(8,32)⁻¹ of its shards.
	h ^= h >> 16
	if m.mask != 0 || len(m.shards) == 1 {
		return m.shards[h&m.mask]
	}
	return m.shards[h%uint32(len(m.shards))]
}

// Set stores value under key, replacing any previous value.
func (m *Map) Set(key, value string) { m.SetHash(fnv32(key), key, value) }

// SetHash is Set with a caller-supplied Hash(key), sparing the recompute
// when the caller already hashed the key for split or lane selection.
func (m *Map) SetHash(h uint32, key, value string) { m.SetHashExpire(h, key, value, 0) }

// SetHashExpire is SetHash with an expiry instant (UnixNano; 0 = never).
// The expiry is stored typed alongside the value — no encoding allocation.
func (m *Map) SetHashExpire(h uint32, key, value string, exp int64) {
	s := m.shardForHash(h)
	s.mu.Lock()
	before := len(s.m)
	s.m[key] = entry{v: value, exp: exp}
	if len(s.m) != before {
		m.count.Add(1)
	}
	s.mu.Unlock()
}

// SetBytesHash stores value under key in the binary key space (16-byte
// keys) or, for other lengths, under the string form of key. Binary keys
// are stored inline — no allocation on insert or overwrite; string-space
// inserts copy the bytes into a fresh key string.
func (m *Map) SetBytesHash(h uint32, key []byte, value string) {
	m.SetBytesHashExpire(h, key, value, 0)
}

// SetBytesHashExpire is SetBytesHash with an expiry instant (UnixNano;
// 0 = never).
func (m *Map) SetBytesHashExpire(h uint32, key []byte, value string, exp int64) {
	s := m.shardForHash(h)
	s.mu.Lock()
	setBytesLocked(s, key, value, exp, &m.count)
	s.mu.Unlock()
}

// setBytesLocked stores (value, exp) under key with the owning shard's
// lock held: 16-byte keys go to the binary key space as one inline map
// assignment (zero allocations, whether inserting or overwriting — the
// property the allocation-free FillUp path rests on), anything else to the
// string space.
func setBytesLocked(s *shard, key []byte, value string, exp int64, count *atomic.Int64) {
	if len(key) == 16 {
		if s.mb.set((*[16]byte)(key), value, exp) {
			count.Add(1)
		}
		return
	}
	before := len(s.m)
	s.m[string(key)] = entry{v: value, exp: exp}
	if len(s.m) != before {
		count.Add(1)
	}
}

// ShardIndex returns the shard a hash maps to. Batch callers (SetItems)
// pre-group their items by this index so that every group is inserted under
// one lock acquisition.
func (m *Map) ShardIndex(h uint32) int {
	h ^= h >> 16
	if m.mask != 0 || len(m.shards) == 1 {
		return int(h & m.mask)
	}
	return int(h % uint32(len(m.shards)))
}

// SetItems performs a batched insert: consecutive items that map to the
// same shard are stored under a single lock acquisition. Callers that
// pre-sort items by ShardIndex(Hash) get one acquisition per touched shard
// per batch — the FillUp lane workers' amortized put path. Key bytes are
// copied only on first insert (see setBytesLocked), never retained.
func (m *Map) SetItems(items []Item) {
	for i := 0; i < len(items); {
		s := m.shardForHash(items[i].Hash)
		s.mu.Lock()
		j := i
		for ; j < len(items) && m.shardForHash(items[j].Hash) == s; j++ {
			setBytesLocked(s, items[j].Key, items[j].Value, items[j].Exp, &m.count)
		}
		s.mu.Unlock()
		i = j
	}
}

// Get returns the value stored under key and whether it was present.
func (m *Map) Get(key string) (string, bool) {
	return m.GetHash(fnv32(key), key)
}

// GetHash is Get with a caller-supplied Hash(key).
func (m *Map) GetHash(h uint32, key string) (string, bool) {
	s := m.shardForHash(h)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	return e.v, ok
}

// GetHashExpire is GetHash returning the stored expiry as well (UnixNano;
// 0 = never expires). The expiry arrives as one typed field load — no
// per-hit string split or strconv parse.
func (m *Map) GetHashExpire(h uint32, key string) (string, int64, bool) {
	s := m.shardForHash(h)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	return e.v, e.exp, ok
}

// GetBytesHash looks key up without any allocation: 16-byte keys probe the
// binary key space (an inline array probe — what keeps the correlator's
// LookUp hit path at zero allocations per flow), other lengths probe the
// string space through the compiler's map-index-by-converted-byte-slice
// optimization. h is the caller's hash of key, as for SetBytesHash.
func (m *Map) GetBytesHash(h uint32, key []byte) (string, bool) {
	s := m.shardForHash(h)
	if len(key) == 16 {
		s.mu.RLock()
		v, _, ok := s.mb.get((*[16]byte)(key))
		s.mu.RUnlock()
		return v, ok
	}
	s.mu.RLock()
	e, ok := s.m[string(key)]
	s.mu.RUnlock()
	return e.v, ok
}

// GetBytesHashExpire is GetBytesHash returning the stored expiry as well
// (UnixNano; 0 = never expires) — the exact-TTL Active-generation probe.
func (m *Map) GetBytesHashExpire(h uint32, key []byte) (string, int64, bool) {
	s := m.shardForHash(h)
	if len(key) == 16 {
		s.mu.RLock()
		v, exp, ok := s.mb.get((*[16]byte)(key))
		s.mu.RUnlock()
		return v, exp, ok
	}
	s.mu.RLock()
	e, ok := s.m[string(key)]
	s.mu.RUnlock()
	return e.v, e.exp, ok
}

// Empty reports whether the map holds no entries, without taking any lock.
// It is a fast path for skipping probes of drained generations; a reader
// racing a concurrent insert may see true until the insert's count update
// lands, exactly as a probe racing that insert could miss the entry.
func (m *Map) Empty() bool { return m.count.Load() == 0 }

// Len returns the total number of entries across all shards. The result is a
// point-in-time aggregate: concurrent mutations may be partially reflected.
func (m *Map) Len() int {
	n := 0
	for _, s := range m.shards {
		s.mu.RLock()
		n += len(s.m) + s.mb.len()
		s.mu.RUnlock()
	}
	return n
}

// Clear removes all entries. Fresh inner maps are allocated so the memory of
// large previous generations becomes collectible immediately; this is the
// operation FlowDNS issues on every clear-up interval.
func (m *Map) Clear() {
	for _, s := range m.shards {
		s.mu.Lock()
		m.count.Add(-int64(len(s.m) + s.mb.len()))
		s.m = make(map[string]entry)
		s.mb.reset()
		s.mu.Unlock()
	}
}

// RangeExpire calls fn with each entry's (key, value, exp) triple — exp in
// UnixNano, 0 = never expires — until it returns false. Shards are
// read-locked one at a time, so a long iteration never freezes the whole
// map; fn must not call back into the same Map's mutating methods for keys
// in the shard being iterated. Binary-space entries are visited with their
// keys rendered as the raw 16-byte string form.
func (m *Map) RangeExpire(fn func(key, value string, exp int64) bool) {
	for _, s := range m.shards {
		s.mu.RLock()
		for k, e := range s.m {
			if !fn(k, e.v, e.exp) {
				s.mu.RUnlock()
				return
			}
		}
		if !s.mb.iterate(func(sl *oaSlot) bool { return fn(string(sl.key[:]), sl.v, sl.exp) }) {
			s.mu.RUnlock()
			return
		}
		s.mu.RUnlock()
	}
}

// KeySpace selects one of a shard's two key namespaces for AppendShard.
// String and binary keys are separate namespaces (a 16-byte string key and
// a 16-byte binary key are different entries), so an iteration that intends
// to rebuild a map must carry the space alongside the key bytes.
type KeySpace uint8

// The two key namespaces.
const (
	// Strings is the string key space (SetHash and friends).
	Strings KeySpace = iota
	// Binary is the 16-byte binary key space (SetBytesHash with a 16-byte
	// key).
	Binary
)

// AppendShard appends every entry of shard i's chosen key space to dst as
// Items (Hash left zero — the shard-selection hash is the caller's choice
// and must be recomputed on re-insert) and returns the extended slice. Key
// bytes are fresh copies, never aliases of map-internal storage. Only shard
// i is read-locked, and only for the duration of the copy: iterating a map
// shard by shard (the snapshot writer's loop) blocks concurrent writers to
// one stripe at a time instead of freezing the whole map.
func (m *Map) AppendShard(i int, space KeySpace, dst []Item) []Item {
	s := m.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if space == Binary {
		s.mb.iterate(func(sl *oaSlot) bool {
			key := sl.key
			dst = append(dst, Item{Key: key[:], Value: sl.v, Exp: sl.exp})
			return true
		})
		return dst
	}
	for k, e := range s.m {
		dst = append(dst, Item{Key: []byte(k), Value: e.v, Exp: e.exp})
	}
	return dst
}

// RemoveIf deletes every entry for which pred returns true and returns the
// number of removed entries. pred receives the stored expiry (UnixNano;
// 0 = none) so the exact-TTL sweep compares two integers per entry instead
// of decoding a string. This is the scan-based expiry primitive the
// exact-TTL anti-benchmark (paper Appendix A.8) relies on; it write-locks
// each shard for the duration of that shard's scan, which is precisely the
// contention the paper observed degrading the system.
func (m *Map) RemoveIf(pred func(key, value string, exp int64) bool) int {
	removed := 0
	var kbuf [16]byte
	for _, s := range m.shards {
		s.mu.Lock()
		shardRemoved := 0
		for k, e := range s.m {
			if pred(k, e.v, e.exp) {
				delete(s.m, k)
				shardRemoved++
			}
		}
		shardRemoved += s.mb.removeIf(func(sl *oaSlot) bool {
			kbuf = sl.key
			return pred(string(kbuf[:]), sl.v, sl.exp)
		})
		m.count.Add(-int64(shardRemoved))
		removed += shardRemoved
		s.mu.Unlock()
	}
	return removed
}

// RemoveIfExpired deletes every entry whose stored expiry is non-zero-or-
// otherwise set and strictly before now (exp < now is expressed as
// now > exp, matching the lookup path's boundary), returning the number
// removed. It is the exact-TTL sweep primitive: unlike RemoveIf it never
// materializes binary keys into strings, so a sweep over a
// millions-of-entries IP-NAME store allocates nothing. Entries with exp 0
// ("never expires" — memoized writes) are removed too, mirroring how the
// lookup path reads them in exact-TTL mode.
func (m *Map) RemoveIfExpired(now int64) int {
	removed := 0
	for _, s := range m.shards {
		s.mu.Lock()
		shardRemoved := 0
		for k, e := range s.m {
			if now > e.exp {
				delete(s.m, k)
				shardRemoved++
			}
		}
		shardRemoved += s.mb.removeIf(func(sl *oaSlot) bool { return now > sl.exp })
		m.count.Add(-int64(shardRemoved))
		removed += shardRemoved
		s.mu.Unlock()
	}
	return removed
}

// ShardCount returns the number of shards.
func (m *Map) ShardCount() int { return len(m.shards) }

// Snapshot atomically (per shard) moves the contents of m into dst and
// clears m. It implements FlowDNS buffer rotation: "copy the contents of the
// active hashmaps into the inactive hashmap and clear up the active
// hashmap". dst's previous contents are discarded. Inner maps are handed
// over by pointer swap, making rotation O(shards) instead of O(entries),
// so both maps must have the same shard count — the store builds every
// generation with one count, and entries addressed by a caller-supplied
// hash would land in the wrong shard under any re-hash; a mismatch panics.
func (m *Map) Snapshot(dst *Map) {
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
		dst.count.Add(int64(len(s.m) + s.mb.len() - len(d.m) - d.mb.len()))
		m.count.Add(-int64(len(s.m) + s.mb.len()))
		d.m = s.m
		d.mb = s.mb
		s.m = make(map[string]entry)
		s.mb.reset()
		d.mu.Unlock()
		s.mu.Unlock()
	}
}
