package cmap

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

// bothKeys runs a test body once per key type: addresses (the IP-NAME
// family's keys) and names (NAME-CNAME's).
func bothKeys(t *testing.T, addr, name func(*testing.T)) {
	t.Run("addr", addr)
	t.Run("name", name)
}

// testKey returns the i-th distinct key of type K.
func testKey[K Key](i int) K {
	var k K
	switch p := any(&k).(type) {
	case *[16]byte:
		*p = oaKey(uint64(i))
	case *string:
		*p = fmt.Sprintf("svc%d.example", i)
	}
	return k
}

// testHash is the shard hash the tests pass for k; any function of the key
// works as long as every operation on that key passes the same value.
func testHash[K Key](k *K) uint32 {
	switch p := any(k).(type) {
	case *[16]byte:
		return Hash(string(p[:]))
	case *string:
		return Hash(*p)
	}
	panic("key type outside Key")
}

// keyBytes returns a fresh byte copy of k, the form SetBytesHash takes.
func keyBytes[K Key](k *K) []byte {
	switch p := any(k).(type) {
	case *[16]byte:
		return append([]byte(nil), p[:]...)
	case *string:
		return []byte(*p)
	}
	panic("key type outside Key")
}

func put[K Key](m *Map[K], k K, v string, exp int64) { m.Set(testHash(&k), &k, v, exp) }

func get[K Key](m *Map[K], k K) (string, int64, bool) { return m.Get(testHash(&k), &k) }

func TestSetGet(t *testing.T) { bothKeys(t, testSetGet[[16]byte], testSetGet[string]) }

func testSetGet[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	put(m, testKey[K](1), "svc.example.com", 0)
	v, _, ok := get(m, testKey[K](1))
	if !ok || v != "svc.example.com" {
		t.Fatalf("Get = %q, %v; want svc.example.com, true", v, ok)
	}
	if _, _, ok := get(m, testKey[K](2)); ok {
		t.Fatal("Get(missing) reported present")
	}
}

func TestSetOverwrites(t *testing.T) {
	bothKeys(t, testSetOverwrites[[16]byte], testSetOverwrites[string])
}

func testSetOverwrites[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	k := testKey[K](0)
	put(m, k, "v1", 0)
	put(m, k, "v2", 0)
	if v, _, _ := get(m, k); v != "v2" {
		t.Fatalf("overwrite: got %q, want v2", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestLenAndClear(t *testing.T) { bothKeys(t, testLenAndClear[[16]byte], testLenAndClear[string]) }

func testLenAndClear[K Key](t *testing.T) {
	m := NewWithShards[K](8)
	for i := 0; i < 100; i++ {
		put(m, testKey[K](i), "v", 0)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d, want 0", m.Len())
	}
}

func TestRemoveIf(t *testing.T) { bothKeys(t, testRemoveIf[[16]byte], testRemoveIf[string]) }

func testRemoveIf[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	for i := 0; i < 50; i++ {
		put(m, testKey[K](i), strconv.Itoa(i%2), 0)
	}
	removed := m.RemoveIf(func(_ *K, v string, _ int64) bool { return v == "0" })
	if removed != 25 {
		t.Fatalf("RemoveIf removed %d, want 25", removed)
	}
	if m.Len() != 25 {
		t.Fatalf("Len = %d, want 25", m.Len())
	}
	for sh := 0; sh < m.ShardCount(); sh++ {
		for _, it := range m.AppendShard(sh, nil) {
			if it.Value != "1" {
				t.Errorf("unexpected survivor %v=%q", it.Key, it.Value)
			}
		}
	}
}

func TestSnapshotRotation(t *testing.T) {
	bothKeys(t, testSnapshotRotation[[16]byte], testSnapshotRotation[string])
}

func testSnapshotRotation[K Key](t *testing.T) {
	active := NewWithShards[K](16)
	inactive := NewWithShards[K](16)
	stale := testKey[K](-1)
	put(inactive, stale, "old-generation", 0)
	for i := 0; i < 200; i++ {
		put(active, testKey[K](i), "v", 0)
	}
	active.Snapshot(inactive)
	if active.Len() != 0 {
		t.Fatalf("active Len after rotation = %d, want 0", active.Len())
	}
	if inactive.Len() != 200 {
		t.Fatalf("inactive Len = %d, want 200", inactive.Len())
	}
	if _, _, ok := get(inactive, stale); ok {
		t.Fatal("rotation must overwrite previous inactive contents")
	}
	// Active remains usable after handover.
	put(active, testKey[K](1000), "v", 0)
	if _, _, ok := get(active, testKey[K](1000)); !ok {
		t.Fatal("active unusable after Snapshot")
	}
}

// The store builds every generation with one shard count; a mismatch is a
// bug, not a second (re-hashing) rotation path.
func TestSnapshotMismatchedShardsPanics(t *testing.T) {
	bothKeys(t, testSnapshotMismatchedShardsPanics[[16]byte], testSnapshotMismatchedShardsPanics[string])
}

func testSnapshotMismatchedShardsPanics[K Key](t *testing.T) {
	active, inactive := NewWithShards[K](4), NewWithShards[K](8)
	k := testKey[K](0)
	put(active, k, "v", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot across shard counts did not panic")
		}
		if v, _, ok := get(active, k); !ok || v != "v" {
			t.Fatalf("refused Snapshot mutated the source: %q, %v", v, ok)
		}
	}()
	active.Snapshot(inactive)
}

func TestSnapshotNilDst(t *testing.T) {
	bothKeys(t, testSnapshotNilDst[[16]byte], testSnapshotNilDst[string])
}

func testSnapshotNilDst[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	put(m, testKey[K](0), "v", 0)
	m.Snapshot(nil) // must not panic
	if _, _, ok := get(m, testKey[K](0)); !ok {
		t.Fatal("Snapshot(nil) mutated the map")
	}
}

func TestNewWithShardsClamps(t *testing.T) {
	bothKeys(t, testNewWithShardsClamps[[16]byte], testNewWithShardsClamps[string])
}

func testNewWithShardsClamps[K Key](t *testing.T) {
	m := NewWithShards[K](0)
	if m.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", m.ShardCount())
	}
	put(m, testKey[K](0), "v", 0)
	if _, _, ok := get(m, testKey[K](0)); !ok {
		t.Fatal("single-shard map broken")
	}
}

func TestNonPowerOfTwoShards(t *testing.T) {
	bothKeys(t, testNonPowerOfTwoShards[[16]byte], testNonPowerOfTwoShards[string])
}

func testNonPowerOfTwoShards[K Key](t *testing.T) {
	m := NewWithShards[K](10) // FlowDNS uses NUM_SPLIT=10
	for i := 0; i < 1000; i++ {
		put(m, testKey[K](i), strconv.Itoa(i), 0)
	}
	for i := 0; i < 1000; i++ {
		v, _, ok := get(m, testKey[K](i))
		if !ok || v != strconv.Itoa(i) {
			t.Fatalf("key %d: got %q,%v", i, v, ok)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	bothKeys(t, testConcurrentAccess[[16]byte], testConcurrentAccess[string])
}

func testConcurrentAccess[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	var wg sync.WaitGroup
	const workers = 16
	const perWorker = 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := testKey[K](w*perWorker + i)
				put(m, k, "v", 0)
				if _, _, ok := get(m, k); !ok {
					t.Errorf("own write not visible: %v", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", m.Len(), workers*perWorker)
	}
}

func TestConcurrentRotationDuringWrites(t *testing.T) {
	bothKeys(t, testConcurrentRotationDuringWrites[[16]byte], testConcurrentRotationDuringWrites[string])
}

func testConcurrentRotationDuringWrites[K Key](t *testing.T) {
	// Simulates fill workers writing while the clear-up rotation runs.
	active := NewWithShards[K](DefaultShardCount)
	inactive := NewWithShards[K](DefaultShardCount)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				put(active, testKey[K](i), "v", 0)
				i++
			}
		}
	}()
	for r := 0; r < 50; r++ {
		active.Snapshot(inactive)
	}
	close(stop)
	wg.Wait()
}

// Property: a cmap behaves like a plain map under a sequential workload.
func TestQuickSequentialEquivalence(t *testing.T) {
	bothKeys(t, testQuickSequentialEquivalence[[16]byte], testQuickSequentialEquivalence[string])
}

func testQuickSequentialEquivalence[K Key](t *testing.T) {
	f := func(keys []K, values []string) bool {
		m := NewWithShards[K](10)
		ref := map[K]string{}
		for i, k := range keys {
			v := "v"
			if i < len(values) {
				v = values[i]
			}
			put(m, k, v, 0)
			ref[k] = v
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, _, ok := get(m, k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot moves exactly the active contents.
func TestQuickSnapshotMoves(t *testing.T) {
	bothKeys(t, testQuickSnapshotMoves[[16]byte], testQuickSnapshotMoves[string])
}

func testQuickSnapshotMoves[K Key](t *testing.T) {
	f := func(keys []K) bool {
		a, b := NewWithShards[K](8), NewWithShards[K](8)
		ref := map[K]bool{}
		for _, k := range keys {
			put(a, k, "x", 0)
			ref[k] = true
		}
		a.Snapshot(b)
		if a.Len() != 0 || b.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if _, _, ok := get(b, k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSet and BenchmarkGetParallel measure the name-keyed map, the
// NAME-CNAME family's shape; BenchmarkCmapTable (repository root) guards
// the address-keyed one.
func BenchmarkSet(b *testing.B) {
	m := NewWithShards[string](32)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = testKey[string](i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &keys[i&1023]
		m.Set(Hash(*k), k, "cdn.example.com", 0)
	}
}

func BenchmarkGetParallel(b *testing.B) {
	m := NewWithShards[string](32)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = testKey[string](i)
		put(m, keys[i], "cdn.example.com", 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := &keys[i&1023]
			m.Get(Hash(*k), k)
			i++
		}
	})
}

// The bench-harness wrappers take the key as bytes; the map must copy it.
func TestSetBytesHashRoundTrip(t *testing.T) {
	bothKeys(t, testSetBytesHashRoundTrip[[16]byte], testSetBytesHashRoundTrip[string])
}

func testSetBytesHashRoundTrip[K Key](t *testing.T) {
	m := NewWithShards[K](8)
	k := testKey[K](7)
	key := keyBytes(&k)
	h := testHash(&k)
	m.SetBytesHash(h, key, "svc.example")
	if v, ok := m.GetBytesHash(h, key); !ok || v != "svc.example" {
		t.Fatalf("GetBytesHash = %q, %v", v, ok)
	}
	// The map must have copied the key: mutating the caller's buffer must
	// not corrupt the stored entry.
	key[len(key)-1] ^= 0xff
	if _, ok := m.GetBytesHash(h, key); ok {
		t.Fatal("mutated key still matches")
	}
	key[len(key)-1] ^= 0xff
	if v, ok := m.GetBytesHash(h, key); !ok || v != "svc.example" {
		t.Fatalf("original key lost after caller mutation: %q, %v", v, ok)
	}
}

func TestEmptyTracksEntryCount(t *testing.T) {
	bothKeys(t, testEmptyTracksEntryCount[[16]byte], testEmptyTracksEntryCount[string])
}

func testEmptyTracksEntryCount[K Key](t *testing.T) {
	m := NewWithShards[K](4)
	if !m.Empty() {
		t.Fatal("fresh map not empty")
	}
	a, b, d, e := testKey[K](1), testKey[K](2), testKey[K](4), testKey[K](5)
	put(m, a, "1", 0)
	put(m, a, "2", 0) // replace: still one entry
	put(m, b, "3", 0)
	if m.Empty() {
		t.Fatal("map with entries reports empty")
	}
	m.Clear()
	if !m.Empty() {
		t.Fatal("cleared map not empty")
	}
	put(m, d, "6", 0)
	put(m, e, "7", 0)
	if n := m.RemoveIf(func(k *K, _ string, _ int64) bool { return *k == d }); n != 1 {
		t.Fatalf("RemoveIf = %d", n)
	}
	if m.Empty() {
		t.Fatal("RemoveIf over-decremented")
	}
	m.RemoveIf(func(*K, string, int64) bool { return true })
	if !m.Empty() {
		t.Fatal("full RemoveIf left count")
	}
}

func TestEmptyAcrossSnapshot(t *testing.T) {
	bothKeys(t, testEmptyAcrossSnapshot[[16]byte], testEmptyAcrossSnapshot[string])
}

func testEmptyAcrossSnapshot[K Key](t *testing.T) {
	src, dst := NewWithShards[K](4), NewWithShards[K](4)
	put(src, testKey[K](1), "1", 0)
	put(src, testKey[K](2), "2", 0)
	put(dst, testKey[K](3), "x", 0)
	src.Snapshot(dst)
	if !src.Empty() {
		t.Fatal("source not empty after snapshot")
	}
	if dst.Empty() {
		t.Fatal("dest empty after snapshot")
	}
	if dst.Len() != 2 {
		t.Fatalf("dst.Len = %d", dst.Len())
	}
}

// --- typed expiry entries and batched inserts ---

func TestExpireRoundTrip(t *testing.T) {
	bothKeys(t, testExpireRoundTrip[[16]byte], testExpireRoundTrip[string])
}

func testExpireRoundTrip[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	k := testKey[K](0)
	put(m, k, "v", 12345)
	if v, exp, ok := get(m, k); !ok || v != "v" || exp != 12345 {
		t.Fatalf("Get = %q, %d, %v", v, exp, ok)
	}
	// An overwrite without expiry stores exp 0 ("never expires").
	put(m, k, "v2", 0)
	if v, exp, _ := get(m, k); v != "v2" || exp != 0 {
		t.Fatalf("overwrite left %q exp %d, want v2 exp 0", v, exp)
	}
	// The bytes wrapper sees the entry whatever its expiry.
	put(m, k, "v3", 77)
	if v, ok := m.GetBytesHash(testHash(&k), keyBytes(&k)); !ok || v != "v3" {
		t.Fatalf("GetBytesHash = %q, %v", v, ok)
	}
}

func TestRemoveIfSeesExpiry(t *testing.T) {
	bothKeys(t, testRemoveIfSeesExpiry[[16]byte], testRemoveIfSeesExpiry[string])
}

func testRemoveIfSeesExpiry[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	for i := 0; i < 100; i++ {
		put(m, testKey[K](i), "v", int64(i))
	}
	removed := m.RemoveIf(func(_ *K, _ string, exp int64) bool { return exp < 50 })
	if removed != 50 {
		t.Fatalf("RemoveIf removed %d, want 50", removed)
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d, want 50", m.Len())
	}
}

func TestSetItems(t *testing.T) { bothKeys(t, testSetItems[[16]byte], testSetItems[string]) }

func testSetItems[K Key](t *testing.T) {
	for _, shards := range []int{1, 4, 32, 7} {
		m := NewWithShards[K](shards)
		const n = 500
		items := make([]Item[K], n)
		for i := range items {
			k := testKey[K](i)
			items[i] = Item[K]{
				Hash:  testHash(&k),
				Key:   k,
				Value: fmt.Sprintf("val%d", i%7),
				Exp:   int64(i),
			}
		}
		// Pre-group by shard as the fill workers do; correctness must not
		// depend on it, so also insert an unsorted overlapping batch.
		sort.Slice(items[:n/2], func(a, b int) bool {
			return m.ShardIndex(items[a].Hash) < m.ShardIndex(items[b].Hash)
		})
		m.SetItems(items[:n/2])
		m.SetItems(items[n/4:]) // overlap re-inserts: count must not double
		if m.Len() != n {
			t.Fatalf("shards=%d: Len = %d, want %d", shards, m.Len(), n)
		}
		for i := range items {
			v, exp, ok := m.Get(items[i].Hash, &items[i].Key)
			if !ok || v != items[i].Value || exp != items[i].Exp {
				t.Fatalf("shards=%d: item %d = %q, %d, %v", shards, i, v, exp, ok)
			}
		}
		// Keys must be copied, never aliased: clobbering the caller's items
		// must not corrupt the map.
		for i := range items {
			items[i].Key = testKey[K](-1)
		}
		if v, _, ok := get(m, testKey[K](42)); !ok || v != "val0" {
			t.Fatalf("shards=%d: after clobber Get(42) = %q, %v", shards, v, ok)
		}
	}
}

// An entry lands in the shard ShardIndex names for its hash, which is what
// lets SetItems callers pre-group a batch by that index.
func TestShardIndexMatchesShardFor(t *testing.T) {
	for _, shards := range []int{1, 8, 32, 5} {
		m := NewWithShards[string](shards)
		for i := 0; i < 1000; i++ {
			k := testKey[string](i)
			h := testHash(&k)
			si := m.ShardIndex(h)
			if si < 0 || si >= shards {
				t.Fatalf("shards=%d: ShardIndex(%d) = %d out of range", shards, h, si)
			}
			put(m, k, "v", 0)
			found := false
			for _, it := range m.AppendShard(si, nil) {
				found = found || it.Key == k
			}
			if !found {
				t.Fatalf("shards=%d: key %q not in shard %d", shards, k, si)
			}
		}
	}
}

func TestSnapshotPreservesExpiry(t *testing.T) {
	bothKeys(t, testSnapshotPreservesExpiry[[16]byte], testSnapshotPreservesExpiry[string])
}

func testSnapshotPreservesExpiry[K Key](t *testing.T) {
	// The hand-over must carry the typed expiry across rotation.
	src, dst := NewWithShards[K](DefaultShardCount), NewWithShards[K](DefaultShardCount)
	k := testKey[K](0)
	put(src, k, "v", 999)
	src.Snapshot(dst)
	if v, exp, ok := get(dst, k); !ok || v != "v" || exp != 999 {
		t.Fatalf("after Snapshot = %q, %d, %v", v, exp, ok)
	}
	if src.Len() != 0 {
		t.Fatal("src not drained")
	}
}

func TestSetBytesOverwriteDoesNotAliasKey(t *testing.T) {
	bothKeys(t, testSetBytesOverwriteDoesNotAliasKey[[16]byte], testSetBytesOverwriteDoesNotAliasKey[string])
}

func testSetBytesOverwriteDoesNotAliasKey[K Key](t *testing.T) {
	// Overwriting through a reused key buffer must never retain the
	// caller's bytes: clobbering the buffer after each put must leave the
	// map intact.
	m := NewWithShards[K](DefaultShardCount)
	k := testKey[K](1)
	buf := keyBytes(&k)
	h := testHash(&k)
	m.SetBytesHash(h, buf, "v1")
	m.SetBytesHash(h, buf, "v2") // overwrite via the same buffer
	for i := range buf {
		buf[i] = 'z'
	}
	if v, _, ok := get(m, k); !ok || v != "v2" {
		t.Fatalf("after clobber: %q, %v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestSetBytesOverwriteAllocFree(t *testing.T) {
	bothKeys(t, testSetBytesOverwriteAllocFree[[16]byte], testSetBytesOverwriteAllocFree[string])
}

func testSetBytesOverwriteAllocFree[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	k := testKey[K](3)
	h := testHash(&k)
	m.Set(h, &k, "v", 7)
	if allocs := testing.AllocsPerRun(100, func() {
		m.Set(h, &k, "v", 7)
	}); allocs != 0 {
		t.Fatalf("overwrite allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := m.Get(h, &k); !ok {
			t.Fatal("lost entry")
		}
	}); allocs != 0 {
		t.Fatalf("Get allocates %v per run, want 0", allocs)
	}
	items := []Item[K]{{Hash: h, Key: k, Value: "v", Exp: 9}}
	if allocs := testing.AllocsPerRun(100, func() {
		m.SetItems(items)
	}); allocs != 0 {
		t.Fatalf("SetItems overwrite allocates %v per run, want 0", allocs)
	}
}

func TestRemoveIfExpired(t *testing.T) {
	bothKeys(t, testRemoveIfExpired[[16]byte], testRemoveIfExpired[string])
}

func testRemoveIfExpired[K Key](t *testing.T) {
	m := NewWithShards[K](DefaultShardCount)
	for i := 0; i < 10; i++ {
		put(m, testKey[K](i), "v", int64(i))
	}
	// now > exp removes; the boundary entry (exp == now) survives, matching
	// the lookup path.
	removed := m.RemoveIfExpired(5)
	if removed != 5 {
		t.Fatalf("removed = %d, want 5", removed)
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d, want 5", m.Len())
	}
	if _, exp, ok := get(m, testKey[K](5)); !ok || exp != 5 {
		t.Fatalf("boundary entry 5 = exp %d, ok %v", exp, ok)
	}
	// The sweep itself must not allocate (the exact-TTL hot path).
	if allocs := testing.AllocsPerRun(20, func() { m.RemoveIfExpired(0) }); allocs != 0 {
		t.Fatalf("RemoveIfExpired allocates %v per run, want 0", allocs)
	}
}

// TestAppendShard checks that iterating every shard reconstructs the exact
// map contents and that returned keys are copies, not aliases.
func TestAppendShard(t *testing.T) { bothKeys(t, testAppendShard[[16]byte], testAppendShard[string]) }

func testAppendShard[K Key](t *testing.T) {
	m := NewWithShards[K](8)
	want := map[K]int64{}
	for i := 0; i < 200; i++ {
		k := testKey[K](i)
		put(m, k, "v", int64(i))
		want[k] = int64(i)
	}
	var items []Item[K]
	got := map[K]int64{}
	for sh := 0; sh < m.ShardCount(); sh++ {
		items = m.AppendShard(sh, items[:0])
		for i := range items {
			if items[i].Value != "v" || items[i].Hash != 0 {
				t.Fatalf("item %v: value %q hash %d", items[i].Key, items[i].Value, items[i].Hash)
			}
			got[items[i].Key] = items[i].Exp
			// Returned keys must be private copies.
			items[i].Key = testKey[K](-1)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for k, exp := range want {
		if e, ok := got[k]; !ok || e != exp {
			t.Fatalf("key %v: exp %d (present %v), want %d", k, e, ok, exp)
		}
	}
	// Clobbering returned keys must not have damaged the map.
	if v, _, ok := get(m, testKey[K](0)); !ok || v != "v" {
		t.Fatalf("map damaged by key mutation: %q, %v", v, ok)
	}
}

// TestAppendShardConcurrent races shard iteration against writers — the
// snapshot writer's lock-striping contract.
func TestAppendShardConcurrent(t *testing.T) {
	bothKeys(t, testAppendShardConcurrent[[16]byte], testAppendShardConcurrent[string])
}

func testAppendShardConcurrent[K Key](t *testing.T) {
	m := NewWithShards[K](8)
	keys := make([]K, 500)
	for i := range keys {
		keys[i] = testKey[K](i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			put(m, keys[i%len(keys)], "v", int64(i))
			i++
		}
	}()
	valid := map[K]bool{}
	for _, k := range keys {
		valid[k] = true
	}
	var items []Item[K]
	for round := 0; round < 200; round++ {
		for sh := 0; sh < m.ShardCount(); sh++ {
			items = m.AppendShard(sh, items[:0])
			for _, it := range items {
				if !valid[it.Key] || it.Value != "v" {
					t.Errorf("torn item: key %v, value %q", it.Key, it.Value)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
