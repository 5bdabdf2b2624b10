package cmap

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	m := New()
	m.Set("a.example.com", "svc.example.com")
	v, ok := m.Get("a.example.com")
	if !ok || v != "svc.example.com" {
		t.Fatalf("Get = %q, %v; want svc.example.com, true", v, ok)
	}
	if _, ok := m.Get("missing"); ok {
		t.Fatal("Get(missing) reported present")
	}
}

func TestSetOverwrites(t *testing.T) {
	m := New()
	m.Set("k", "v1")
	m.Set("k", "v2")
	if v, _ := m.Get("k"); v != "v2" {
		t.Fatalf("overwrite: got %q, want v2", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestLenAndClear(t *testing.T) {
	m := NewWithShards(8)
	for i := 0; i < 100; i++ {
		m.Set(strconv.Itoa(i), "v")
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d, want 0", m.Len())
	}
}

func TestRemoveIf(t *testing.T) {
	m := New()
	for i := 0; i < 50; i++ {
		m.Set(strconv.Itoa(i), strconv.Itoa(i%2))
	}
	removed := m.RemoveIf(func(k, v string, _ int64) bool { return v == "0" })
	if removed != 25 {
		t.Fatalf("RemoveIf removed %d, want 25", removed)
	}
	if m.Len() != 25 {
		t.Fatalf("Len = %d, want 25", m.Len())
	}
	m.RangeExpire(func(k, v string, _ int64) bool {
		if v != "1" {
			t.Errorf("unexpected survivor %q=%q", k, v)
		}
		return true
	})
}

func TestSnapshotRotation(t *testing.T) {
	active := NewWithShards(16)
	inactive := NewWithShards(16)
	inactive.Set("stale", "old-generation")
	for i := 0; i < 200; i++ {
		active.Set("k"+strconv.Itoa(i), "v")
	}
	active.Snapshot(inactive)
	if active.Len() != 0 {
		t.Fatalf("active Len after rotation = %d, want 0", active.Len())
	}
	if inactive.Len() != 200 {
		t.Fatalf("inactive Len = %d, want 200", inactive.Len())
	}
	if _, ok := inactive.Get("stale"); ok {
		t.Fatal("rotation must overwrite previous inactive contents")
	}
	// Active remains usable after handover.
	active.Set("fresh", "v")
	if _, ok := active.Get("fresh"); !ok {
		t.Fatal("active unusable after Snapshot")
	}
}

// The store builds every generation with one shard count; a mismatch is a
// bug, not a second (re-hashing) rotation path.
func TestSnapshotMismatchedShardsPanics(t *testing.T) {
	active, inactive := NewWithShards(4), NewWithShards(8)
	active.Set("k", "v")
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot across shard counts did not panic")
		}
		if v, ok := active.Get("k"); !ok || v != "v" {
			t.Fatalf("refused Snapshot mutated the source: %q, %v", v, ok)
		}
	}()
	active.Snapshot(inactive)
}

func TestSnapshotNilDst(t *testing.T) {
	m := New()
	m.Set("k", "v")
	m.Snapshot(nil) // must not panic
	if _, ok := m.Get("k"); !ok {
		t.Fatal("Snapshot(nil) mutated the map")
	}
}

func TestNewWithShardsClamps(t *testing.T) {
	m := NewWithShards(0)
	if m.ShardCount() != 1 {
		t.Fatalf("ShardCount = %d, want 1", m.ShardCount())
	}
	m.Set("k", "v")
	if _, ok := m.Get("k"); !ok {
		t.Fatal("single-shard map broken")
	}
}

func TestNonPowerOfTwoShards(t *testing.T) {
	m := NewWithShards(10) // FlowDNS uses NUM_SPLIT=10
	for i := 0; i < 1000; i++ {
		m.Set(fmt.Sprintf("key-%d", i), strconv.Itoa(i))
	}
	for i := 0; i < 1000; i++ {
		v, ok := m.Get(fmt.Sprintf("key-%d", i))
		if !ok || v != strconv.Itoa(i) {
			t.Fatalf("key-%d: got %q,%v", i, v, ok)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	const workers = 16
	const perWorker = 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				m.Set(k, "v")
				if _, ok := m.Get(k); !ok {
					t.Errorf("own write not visible: %s", k)
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
	// Simulates FillUp workers writing while the clear-up rotation runs.
	active := New()
	inactive := New()
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
				active.Set(strconv.Itoa(i), "v")
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
	f := func(keys []string, values []string) bool {
		m := NewWithShards(10)
		ref := map[string]string{}
		for i, k := range keys {
			v := "v"
			if i < len(values) {
				v = values[i]
			}
			m.Set(k, v)
			ref[k] = v
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(k)
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
	f := func(keys []string) bool {
		a, b := NewWithShards(8), NewWithShards(8)
		ref := map[string]bool{}
		for _, k := range keys {
			a.Set(k, "x")
			ref[k] = true
		}
		a.Snapshot(b)
		if a.Len() != 0 || b.Len() != len(ref) {
			return false
		}
		for k := range ref {
			if _, ok := b.Get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	m := NewWithShards(32)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("198.51.%d.%d", i/256, i%256)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(keys[i&1023], "cdn.example.com")
	}
}

func BenchmarkGetParallel(b *testing.B) {
	m := NewWithShards(32)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("198.51.%d.%d", i/256, i%256)
		m.Set(keys[i], "cdn.example.com")
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Get(keys[i&1023])
			i++
		}
	})
}

func TestGetBytesHashFindsStringKeys(t *testing.T) {
	m := NewWithShards(8)
	m.Set("198.51.100.7", "cdn.example")
	hit, miss := []byte("198.51.100.7"), []byte("198.51.100.8")
	if v, ok := m.GetBytesHash(HashBytes(hit), hit); !ok || v != "cdn.example" {
		t.Fatalf("GetBytesHash = %q, %v", v, ok)
	}
	if _, ok := m.GetBytesHash(HashBytes(miss), miss); ok {
		t.Fatal("GetBytesHash found absent key")
	}
	// Hash equivalence: byte and string forms must agree, or shard
	// selection would diverge between fills and lookups.
	if Hash("198.51.100.7") != HashBytes([]byte("198.51.100.7")) {
		t.Fatal("Hash and HashBytes disagree")
	}
}

func TestSetBytesHashRoundTrip(t *testing.T) {
	m := NewWithShards(8)
	key := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 198, 51, 100, 7}
	h := HashBytes(key)
	m.SetBytesHash(h, key, "svc.example")
	if v, ok := m.GetBytesHash(h, key); !ok || v != "svc.example" {
		t.Fatalf("GetBytesHash = %q, %v", v, ok)
	}
	// The map must have copied the key: mutating the caller's buffer must
	// not corrupt the stored entry.
	key[15] = 9
	h2 := HashBytes(key)
	if _, ok := m.GetBytesHash(h2, key); ok {
		t.Fatal("mutated key still matches")
	}
	key[15] = 7
	if v, ok := m.GetBytesHash(h, key); !ok || v != "svc.example" {
		t.Fatalf("original key lost after caller mutation: %q, %v", v, ok)
	}
}

func TestEmptyTracksEntryCount(t *testing.T) {
	m := NewWithShards(4)
	if !m.Empty() {
		t.Fatal("fresh map not empty")
	}
	m.Set("a", "1")
	m.Set("a", "2") // replace: still one entry
	m.Set("b", "3")
	if m.Empty() {
		t.Fatal("map with entries reports empty")
	}
	m.Clear()
	if !m.Empty() {
		t.Fatal("cleared map not empty")
	}
	m.Set("d", "6")
	m.Set("e", "7")
	if n := m.RemoveIf(func(k, _ string, _ int64) bool { return k == "d" }); n != 1 {
		t.Fatalf("RemoveIf = %d", n)
	}
	if m.Empty() {
		t.Fatal("RemoveIf over-decremented")
	}
	m.RemoveIf(func(string, string, int64) bool { return true })
	if !m.Empty() {
		t.Fatal("full RemoveIf left count")
	}
}

func TestEmptyAcrossSnapshot(t *testing.T) {
	src, dst := NewWithShards(4), NewWithShards(4)
	src.Set("a", "1")
	src.Set("b", "2")
	dst.Set("stale", "x")
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

// --- typed expiry entries and batched inserts (fill-path PR) ---

func TestExpireRoundTrip(t *testing.T) {
	m := New()
	h := Hash("k")
	m.SetHashExpire(h, "k", "v", 12345)
	v, exp, ok := m.GetHashExpire(h, "k")
	if !ok || v != "v" || exp != 12345 {
		t.Fatalf("GetHashExpire = %q, %d, %v", v, exp, ok)
	}
	// Plain sets store exp 0 ("never expires").
	m.SetHash(h, "k", "v2")
	if _, exp, _ := m.GetHashExpire(h, "k"); exp != 0 {
		t.Fatalf("plain SetHash left exp %d, want 0", exp)
	}
	// Byte keys of lengths other than 16 share the string key space.
	key := []byte("bk")
	bh := HashBytes(key)
	m.SetBytesHashExpire(bh, key, "bv", 77)
	if v, exp, ok := m.GetBytesHashExpire(bh, key); !ok || v != "bv" || exp != 77 {
		t.Fatalf("GetBytesHashExpire = %q, %d, %v", v, exp, ok)
	}
	if v, exp, ok := m.GetHashExpire(Hash("bk"), "bk"); !ok || v != "bv" || exp != 77 {
		t.Fatalf("string probe of byte-keyed entry = %q, %d, %v", v, exp, ok)
	}
	// The plain getters still see the value regardless of expiry.
	if v, ok := m.Get("bk"); !ok || v != "bv" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// 16-byte keys live in the binary key space: visible to the byte-keyed
	// getters, to Len, and to RangeExpire (as the raw 16-byte string), but
	// not to the string-keyed getters — the two spaces are separate.
	bin := []byte("0123456789abcdef")
	m.SetBytesHashExpire(HashBytes(bin), bin, "binv", 5)
	if v, exp, ok := m.GetBytesHashExpire(HashBytes(bin), bin); !ok || v != "binv" || exp != 5 {
		t.Fatalf("binary-space get = %q, %d, %v", v, exp, ok)
	}
	if _, ok := m.Get("0123456789abcdef"); ok {
		t.Fatal("string probe crossed into the binary key space")
	}
	var got string
	m.RangeExpire(func(k, v string, _ int64) bool {
		if k == "0123456789abcdef" {
			got = v
		}
		return true
	})
	if got != "binv" {
		t.Fatalf("RangeExpire missed binary entry: %q", got)
	}
}

func TestRemoveIfSeesExpiry(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		m.SetHashExpire(Hash(k), k, "v", int64(i))
	}
	removed := m.RemoveIf(func(_, _ string, exp int64) bool { return exp < 50 })
	if removed != 50 {
		t.Fatalf("RemoveIf removed %d, want 50", removed)
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d, want 50", m.Len())
	}
}

func TestSetItems(t *testing.T) {
	for _, shards := range []int{1, 4, 32, 7} {
		m := NewWithShards(shards)
		const n = 500
		items := make([]Item, n)
		keys := make([][]byte, n)
		for i := range items {
			keys[i] = []byte(fmt.Sprintf("key%d", i))
			items[i] = Item{
				Hash:  HashBytes(keys[i]),
				Key:   keys[i],
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
			v, exp, ok := m.GetBytesHashExpire(items[i].Hash, items[i].Key)
			if !ok || v != items[i].Value || exp != items[i].Exp {
				t.Fatalf("shards=%d: item %d = %q, %d, %v", shards, i, v, exp, ok)
			}
		}
		// Keys must be copied, never aliased: clobbering the caller's
		// buffers must not corrupt the map.
		for i := range keys {
			for j := range keys[i] {
				keys[i][j] = 'x'
			}
		}
		if v, ok := m.Get("key42"); !ok || v != "val0" {
			t.Fatalf("shards=%d: after clobber Get(key42) = %q, %v", shards, v, ok)
		}
	}
}

func TestShardIndexMatchesShardFor(t *testing.T) {
	for _, shards := range []int{1, 8, 32, 5} {
		m := NewWithShards(shards)
		for i := 0; i < 1000; i++ {
			h := Hash(fmt.Sprintf("k%d", i))
			if got, want := m.shards[m.ShardIndex(h)], m.shardForHash(h); got != want {
				t.Fatalf("shards=%d: ShardIndex(%d) disagrees with shardForHash", shards, h)
			}
		}
	}
}

func TestSnapshotPreservesExpiry(t *testing.T) {
	// The pointer swap must carry the typed expiry across rotation.
	src, dst := New(), New()
	src.SetHashExpire(Hash("k"), "k", "v", 999)
	src.Snapshot(dst)
	if v, exp, ok := dst.GetHashExpire(Hash("k"), "k"); !ok || v != "v" || exp != 999 {
		t.Fatalf("after Snapshot = %q, %d, %v", v, exp, ok)
	}
	if src.Len() != 0 {
		t.Fatal("src not drained")
	}
}

func TestSetBytesOverwriteDoesNotAliasKey(t *testing.T) {
	// Overwriting through a reused key buffer must reuse the stored key
	// string, never retain the caller's bytes: clobbering the buffer after
	// each put must leave the map intact. (Regression: a plain map
	// assignment through a no-copy string view replaces the stored key's
	// pointer, silently aliasing the buffer.)
	m := New()
	buf := []byte("key-one")
	h := HashBytes(buf)
	m.SetBytesHashExpire(h, buf, "v1", 1)
	m.SetBytesHashExpire(h, buf, "v2", 2) // overwrite via the same buffer
	for i := range buf {
		buf[i] = 'z'
	}
	if v, exp, ok := m.GetHashExpire(Hash("key-one"), "key-one"); !ok || v != "v2" || exp != 2 {
		t.Fatalf("after clobber: %q, %d, %v", v, exp, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestSetBytesOverwriteAllocFree(t *testing.T) {
	m := New()
	key := []byte("16-byte-bin-key!") // binary key space: inline, alloc-free
	h := HashBytes(key)
	m.SetBytesHashExpire(h, key, "v", 7)
	if allocs := testing.AllocsPerRun(100, func() {
		m.SetBytesHashExpire(h, key, "v", 7)
	}); allocs != 0 {
		t.Fatalf("overwrite allocates %v per run, want 0", allocs)
	}
	items := []Item{{Hash: h, Key: key, Value: "v", Exp: 9}}
	if allocs := testing.AllocsPerRun(100, func() {
		m.SetItems(items)
	}); allocs != 0 {
		t.Fatalf("SetItems overwrite allocates %v per run, want 0", allocs)
	}
}

func TestRemoveIfExpired(t *testing.T) {
	m := New()
	// String space and binary space both participate in the sweep.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("s%d", i)
		m.SetHashExpire(Hash(k), k, "v", int64(i))
		bk := []byte(fmt.Sprintf("bin-key-16bytes%d", i))
		m.SetBytesHashExpire(HashBytes(bk), bk, "v", int64(i))
	}
	// now > exp removes; the boundary entry (exp == now) survives, matching
	// the lookup path.
	removed := m.RemoveIfExpired(5)
	if removed != 10 {
		t.Fatalf("removed = %d, want 10 (5 per key space)", removed)
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d, want 10", m.Len())
	}
	if _, exp, ok := m.GetHashExpire(Hash("s5"), "s5"); !ok || exp != 5 {
		t.Fatalf("boundary entry s5 = exp %d, ok %v", exp, ok)
	}
	// The sweep itself must not allocate (the exact-TTL hot path).
	if allocs := testing.AllocsPerRun(20, func() { m.RemoveIfExpired(0) }); allocs != 0 {
		t.Fatalf("RemoveIfExpired allocates %v per run, want 0", allocs)
	}
}

func TestRangeExpire(t *testing.T) {
	m := New()
	m.SetHashExpire(Hash("a"), "a", "va", 1)
	m.SetHashExpire(Hash("b"), "b", "vb", 0)
	bk := []byte("16-byte-bin-key!")
	m.SetBytesHashExpire(HashBytes(bk), bk, "vbin", 7)

	got := map[string]int64{}
	m.RangeExpire(func(key, value string, exp int64) bool {
		got[key+"="+value] = exp
		return true
	})
	want := map[string]int64{"a=va": 1, "b=vb": 0, "16-byte-bin-key!=vbin": 7}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for k, exp := range want {
		if got[k] != exp {
			t.Fatalf("entry %s: exp %d, want %d", k, got[k], exp)
		}
	}

	// Early termination: fn returning false stops the walk.
	visited := 0
	m.RangeExpire(func(key, value string, exp int64) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Fatalf("visited %d entries after false, want 1", visited)
	}
}

// TestAppendShard checks that iterating every shard of each key space
// reconstructs the exact map contents, that the two key spaces stay
// separate, and that returned keys are copies, not aliases.
func TestAppendShard(t *testing.T) {
	m := NewWithShards(8)
	strs := map[string]int64{}
	bins := map[string]int64{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("string-key-%03d", i)
		m.SetHashExpire(Hash(k), k, "sv", int64(i))
		strs[k] = int64(i)
		bk := []byte(fmt.Sprintf("bin-key-16byt%03d", i))
		if len(bk) != 16 {
			t.Fatalf("test key %q not 16 bytes", bk)
		}
		m.SetBytesHashExpire(HashBytes(bk), bk, "bv", int64(i))
		bins[string(bk)] = int64(i)
	}
	// A 16-byte *string* key must appear in the Strings space, never Binary.
	collide := "16-byte-str-key!"
	m.SetHashExpire(Hash(collide), collide, "collide", -1)
	strs[collide] = -1

	var items []Item
	gotStr := map[string]int64{}
	for sh := 0; sh < m.ShardCount(); sh++ {
		items = m.AppendShard(sh, Strings, items[:0])
		for _, it := range items {
			if it.Value != "sv" && it.Value != "collide" {
				t.Fatalf("string space holds %q", it.Value)
			}
			gotStr[string(it.Key)] = it.Exp
		}
	}
	gotBin := map[string]int64{}
	for sh := 0; sh < m.ShardCount(); sh++ {
		items = m.AppendShard(sh, Binary, items[:0])
		for _, it := range items {
			if len(it.Key) != 16 || it.Value != "bv" {
				t.Fatalf("binary space holds %d-byte key %q value %q", len(it.Key), it.Key, it.Value)
			}
			// Returned keys must be private copies.
			it.Key[0] ^= 0xff
			gotBin[string(append([]byte{it.Key[0] ^ 0xff}, it.Key[1:]...))] = it.Exp
		}
	}
	if len(gotStr) != len(strs) {
		t.Fatalf("string space: %d keys, want %d", len(gotStr), len(strs))
	}
	for k, exp := range strs {
		if gotStr[k] != exp {
			t.Fatalf("string key %q: exp %d, want %d", k, gotStr[k], exp)
		}
	}
	if len(gotBin) != len(bins) {
		t.Fatalf("binary space: %d keys, want %d", len(gotBin), len(bins))
	}
	for k, exp := range bins {
		if gotBin[k] != exp {
			t.Fatalf("binary key %q: exp %d, want %d", k, gotBin[k], exp)
		}
	}
	// Clobbering returned keys must not have damaged the map.
	probe := []byte(fmt.Sprintf("bin-key-16byt%03d", 0))
	if v, ok := m.GetBytesHash(HashBytes(probe), probe); !ok || v != "bv" {
		t.Fatalf("map damaged by key mutation: %q, %v", v, ok)
	}
}

// TestAppendShardConcurrent races shard iteration against writers — the
// snapshot writer's lock-striping contract.
func TestAppendShardConcurrent(t *testing.T) {
	m := NewWithShards(8)
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
			bk := []byte(fmt.Sprintf("bin-key-16byt%03d", i%500))
			m.SetBytesHashExpire(HashBytes(bk), bk, "v", int64(i))
			i++
		}
	}()
	var items []Item
	for round := 0; round < 200; round++ {
		for sh := 0; sh < m.ShardCount(); sh++ {
			items = m.AppendShard(sh, Binary, items[:0])
			for _, it := range items {
				if len(it.Key) != 16 || it.Value != "v" {
					t.Errorf("torn item: %d-byte key, value %q", len(it.Key), it.Value)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
