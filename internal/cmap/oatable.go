package cmap

import (
	"encoding/binary"
	"hash/maphash"
)

// table is the open-addressed hash table behind one shard: keys with their
// (value, expiry) stored inline in the slot array. It is shaped for the
// store's access mix (overwrite-heavy fill, read-heavy lookup, periodic
// whole-table sweeps):
//
//   - linear probing over a power-of-two slot array, so a probe chain is one
//     cache-line walk with no pointer chasing;
//   - a separate one-byte control array (0 = empty, else a 7-bit hash
//     fingerprint with the top bit set) keeps misses and fingerprint
//     rejections off the 40-byte slot array entirely;
//   - deletion is backward-shift, not tombstones: probe chains stay exactly
//     as long as the live entries need, so expiry sweeps — which delete in
//     bulk — never degrade later probes the way tombstone accumulation
//     would, and sweeps fold into a single pass over the slot array;
//   - growth doubles the array at 13/16 occupancy and rehashes in place of
//     allocation churn: slots are plain values, so a rehash is a memmove per
//     entry with no per-entry allocation.
//
// The zero value is an empty table owning no memory (a cleared shard holds
// no slot array at all); first insert allocates the minimum size.
type table[K Key] struct {
	slots []slot[K]
	ctrl  []uint8
	used  int
	limit int // grow when used reaches this (13/16 of len)
	// seed keys the probe hash of name keys. Names come off the wire, so an
	// unseeded hash would let crafted names pile onto one probe chain; the
	// seed is drawn when the slot array is first allocated and travels with
	// the table through Snapshot's hand-over.
	seed maphash.Seed
}

// slot is one open-addressed slot: the full key plus the entry payload,
// inline. 40 bytes on 64-bit platforms for either key type — slot i and its
// neighbours in a probe chain share cache lines.
type slot[K Key] struct {
	key K
	v   string
	exp int64
}

const oaMinSize = 8

// oaHash mixes the two 8-byte words of an address key into a 64-bit hash.
// The caller's shard hash already chose which table this key lands in; this
// hash only has to spread probe positions within one table, so a
// multiply–xorshift mix of the raw words is enough and costs two loads and
// three multiplies — far less than rehashing 16 bytes byte-at-a-time on
// every probe.
func oaHash(k *[16]byte) uint64 {
	a := binary.LittleEndian.Uint64(k[0:8])
	b := binary.LittleEndian.Uint64(k[8:16])
	h := (a ^ 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	h ^= (b ^ 0x94D049BB133111EB) * 0xD6E8FEB86659FD93
	h ^= h >> 32
	h *= 0x2545F4914F6CDD1D
	h ^= h >> 29
	return h
}

// hash returns k's probe hash: oaHash for addresses, the table's seeded
// maphash for names.
func (t *table[K]) hash(k *K) uint64 {
	if a, ok := any(k).(*[16]byte); ok {
		return oaHash(a)
	}
	return maphash.String(t.seed, *any(k).(*string))
}

// oaFingerprint derives the control byte for a hash: the top 7 bits, with
// the high bit set so it can never equal the empty marker (0).
func oaFingerprint(h uint64) uint8 { return uint8(h>>57) | 0x80 }

// get returns the entry stored under k.
func (t *table[K]) get(k *K) (string, int64, bool) {
	if t.used == 0 {
		return "", 0, false
	}
	mask := uint64(len(t.slots) - 1)
	h := t.hash(k)
	fp := oaFingerprint(h)
	for i := h & mask; ; i = (i + 1) & mask {
		c := t.ctrl[i]
		if c == 0 {
			return "", 0, false
		}
		if c == fp && t.slots[i].key == *k {
			s := &t.slots[i]
			return s.v, s.exp, true
		}
	}
}

// set stores (v, exp) under k, reporting whether a new entry was inserted
// (false = overwrite). Neither path allocates once the slot array exists.
func (t *table[K]) set(k *K, v string, exp int64) bool {
	if t.used >= t.limit {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	h := t.hash(k)
	fp := oaFingerprint(h)
	for i := h & mask; ; i = (i + 1) & mask {
		c := t.ctrl[i]
		if c == 0 {
			t.ctrl[i] = fp
			t.slots[i] = slot[K]{key: *k, v: v, exp: exp}
			t.used++
			return true
		}
		if c == fp && t.slots[i].key == *k {
			s := &t.slots[i]
			s.v = v
			s.exp = exp
			return false
		}
	}
}

// grow doubles the slot array (or allocates the minimum, drawing a fresh
// seed) and reinserts every live entry. Entries are plain values; no
// per-entry allocation.
func (t *table[K]) grow() {
	oldSlots, oldCtrl := t.slots, t.ctrl
	n := oaMinSize
	if len(oldSlots) > 0 {
		n = len(oldSlots) * 2
	} else {
		t.seed = maphash.MakeSeed()
	}
	t.slots = make([]slot[K], n)
	t.ctrl = make([]uint8, n)
	t.limit = n - n>>2 + n>>4 // 13/16
	mask := uint64(n - 1)
	for i := range oldCtrl {
		if oldCtrl[i] == 0 {
			continue
		}
		s := &oldSlots[i]
		h := t.hash(&s.key)
		j := h & mask
		for t.ctrl[j] != 0 {
			j = (j + 1) & mask
		}
		t.ctrl[j] = oaFingerprint(h)
		t.slots[j] = *s
	}
}

// deleteAt removes the entry in slot i and backward-shifts the tail of its
// probe chain so no tombstone is left behind: every following entry whose
// home position precedes the hole (cyclically) moves back into it. Probe
// chains therefore always terminate at a genuinely empty slot.
func (t *table[K]) deleteAt(i uint64) {
	mask := uint64(len(t.slots) - 1)
	t.used--
	for {
		t.ctrl[i] = 0
		t.slots[i] = slot[K]{}
		j := i
		for {
			j = (j + 1) & mask
			if t.ctrl[j] == 0 {
				return
			}
			home := t.hash(&t.slots[j].key) & mask
			// Slot j may move into the hole at i only if its home does not
			// lie cyclically within (i, j] — otherwise the move would place
			// it before its own probe chain starts.
			var inRange bool
			if i < j {
				inRange = i < home && home <= j
			} else {
				inRange = i < home || home <= j
			}
			if !inRange {
				t.ctrl[i] = t.ctrl[j]
				t.slots[i] = t.slots[j]
				i = j
				break
			}
		}
	}
}

// remove deletes k, reporting whether it was present.
func (t *table[K]) remove(k *K) bool {
	if t.used == 0 {
		return false
	}
	mask := uint64(len(t.slots) - 1)
	h := t.hash(k)
	fp := oaFingerprint(h)
	for i := h & mask; ; i = (i + 1) & mask {
		c := t.ctrl[i]
		if c == 0 {
			return false
		}
		if c == fp && t.slots[i].key == *k {
			t.deleteAt(i)
			return true
		}
	}
}

// removeIf deletes every entry for which pred returns true and returns how
// many were removed. The sweep is one pass over the slot array with
// backward-shift deletion folded in: after a delete the same index is
// re-examined, because the shift may have moved a later chain member into
// it. A wrapped chain can re-present an already-visited entry; pred must
// therefore tolerate being asked about an entry twice (every caller's
// predicate is a pure function of the entry, so this costs a duplicate
// check, never a wrong delete).
func (t *table[K]) removeIf(pred func(s *slot[K]) bool) int {
	removed := 0
	for i := 0; i < len(t.ctrl); i++ {
		if t.ctrl[i] == 0 {
			continue
		}
		if pred(&t.slots[i]) {
			t.deleteAt(uint64(i))
			removed++
			i-- // re-examine: the shift may have refilled this slot
		}
	}
	return removed
}

// iterate calls fn for every live slot. fn must not mutate the table.
func (t *table[K]) iterate(fn func(s *slot[K])) {
	for i := range t.ctrl {
		if t.ctrl[i] != 0 {
			fn(&t.slots[i])
		}
	}
}

// reset drops the table's memory, returning it to the zero state. Used by
// Clear and Snapshot so a rotated-away generation's slot array becomes
// collectible at once.
func (t *table[K]) reset() { *t = table[K]{} }

// len returns the number of live entries.
func (t *table[K]) len() int { return t.used }
