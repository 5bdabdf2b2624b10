package cmap

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func oaKey(i uint64) [16]byte {
	var k [16]byte
	binary.BigEndian.PutUint64(k[:8], i)
	binary.BigEndian.PutUint64(k[8:], ^i)
	return k
}

type refEntry struct {
	v   string
	exp int64
}

// A long random interleaving of set/overwrite/remove/get must leave the
// table exactly agreeing with a reference map — this exercises growth,
// collision chains, and backward-shift deletion in every relative order.
func TestTableMatchesReferenceMap(t *testing.T) {
	bothKeys(t, testTableMatchesReferenceMap[[16]byte], testTableMatchesReferenceMap[string])
}

func testTableMatchesReferenceMap[K Key](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab table[K]
	ref := map[K]refEntry{}
	const keySpace = 512 // small key space forces overwrites and re-inserts
	for op := 0; op < 50_000; op++ {
		k := testKey[K](rng.Intn(keySpace))
		switch rng.Intn(4) {
		case 0, 1: // set
			v := fmt.Sprintf("v%d", op)
			exp := int64(op)
			inserted := tab.set(&k, v, exp)
			_, existed := ref[k]
			if inserted == existed {
				t.Fatalf("op %d: set inserted=%v but key existed=%v", op, inserted, existed)
			}
			ref[k] = refEntry{v: v, exp: exp}
		case 2: // remove
			removed := tab.remove(&k)
			_, existed := ref[k]
			if removed != existed {
				t.Fatalf("op %d: remove=%v but key existed=%v", op, removed, existed)
			}
			delete(ref, k)
		case 3: // get
			v, exp, ok := tab.get(&k)
			e, existed := ref[k]
			if ok != existed || v != e.v || exp != e.exp {
				t.Fatalf("op %d: get=(%q,%d,%v) want (%q,%d,%v)", op, v, exp, ok, e.v, e.exp, existed)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("op %d: len=%d want %d", op, tab.len(), len(ref))
		}
	}
	// Every surviving reference entry must still probe correctly, and the
	// iteration must visit each exactly once.
	seen := map[K]bool{}
	tab.iterate(func(s *slot[K]) {
		if seen[s.key] {
			t.Fatalf("iterate visited %v twice", s.key)
		}
		seen[s.key] = true
		e, ok := ref[s.key]
		if !ok || e.v != s.v || e.exp != s.exp {
			t.Fatalf("iterate: %v=(%q,%d) not in reference (%+v,%v)", s.key, s.v, s.exp, e, ok)
		}
	})
	if len(seen) != len(ref) {
		t.Fatalf("iterate visited %d entries, want %d", len(seen), len(ref))
	}
}

// removeIf with a predicate that deletes a random half of the entries must
// keep every survivor reachable by get — the backward-shift fold into the
// sweep must never break a probe chain, including chains that wrap the end
// of the slot array.
func TestTableRemoveIfKeepsSurvivorsReachable(t *testing.T) {
	bothKeys(t, testTableRemoveIfKeepsSurvivorsReachable[[16]byte], testTableRemoveIfKeepsSurvivorsReachable[string])
}

func testTableRemoveIfKeepsSurvivorsReachable[K Key](t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var tab table[K]
		n := 64 + rng.Intn(2048)
		doomed := map[K]bool{}
		keys := make([]K, n)
		for i := range keys {
			keys[i] = testKey[K](i * 0x9E3779B9) // strided keys → clustered chains
			tab.set(&keys[i], fmt.Sprintf("v%d", i), int64(i))
			if rng.Intn(2) == 0 {
				doomed[keys[i]] = true
			}
		}
		removed := tab.removeIf(func(s *slot[K]) bool { return doomed[s.key] })
		if removed != len(doomed) {
			t.Fatalf("trial %d: removed %d, want %d", trial, removed, len(doomed))
		}
		if tab.len() != n-len(doomed) {
			t.Fatalf("trial %d: len=%d want %d", trial, tab.len(), n-len(doomed))
		}
		for i, k := range keys {
			v, _, ok := tab.get(&k)
			if doomed[k] {
				if ok {
					t.Fatalf("trial %d: doomed key %d still present", trial, i)
				}
			} else if !ok || v != fmt.Sprintf("v%d", i) {
				t.Fatalf("trial %d: survivor %d unreachable after sweep (ok=%v v=%q)", trial, i, ok, v)
			}
		}
	}
}

// An overwrite of an existing key must not allocate, and neither may an
// insert once the slot array has capacity — the discipline the fill path
// benchmarks rest on, pinned here at the table level.
func TestTableSetAllocFree(t *testing.T) {
	bothKeys(t, testTableSetAllocFree[[16]byte], testTableSetAllocFree[string])
}

func testTableSetAllocFree[K Key](t *testing.T) {
	var tab table[K]
	k := testKey[K](7)
	tab.set(&k, "warm", 1)
	for i := 0; i < 100; i++ { // pre-grow
		kk := testKey[K](i)
		tab.set(&kk, "fill", 1)
	}
	tab.set(&k, "warm", 1)
	if n := testing.AllocsPerRun(100, func() {
		tab.set(&k, "warm", 2)
	}); n != 0 {
		t.Fatalf("overwrite allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v, _, ok := tab.get(&k)
		if !ok || v != "warm" {
			t.Fatal("lost entry")
		}
	}); n != 0 {
		t.Fatalf("get allocs/op = %v, want 0", n)
	}
}

// A cleared table owns no memory and accepts fresh inserts.
func TestTableReset(t *testing.T) { bothKeys(t, testTableReset[[16]byte], testTableReset[string]) }

func testTableReset[K Key](t *testing.T) {
	var tab table[K]
	for i := 0; i < 100; i++ {
		k := testKey[K](i)
		tab.set(&k, "x", 0)
	}
	tab.reset()
	if tab.len() != 0 || tab.slots != nil || tab.ctrl != nil {
		t.Fatalf("reset left state: len=%d slots=%v", tab.len(), tab.slots != nil)
	}
	k := testKey[K](1)
	if _, _, ok := tab.get(&k); ok {
		t.Fatal("get hit after reset")
	}
	if !tab.set(&k, "y", 0) {
		t.Fatal("insert after reset not reported as new")
	}
}
