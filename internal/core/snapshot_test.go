package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cmap"
	"repro/internal/netflow"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// snapBase is the fixed record clock all snapshot tests run on.
var snapBase = time.Unix(1_700_000_000, 0)

// genSnapshotWorkload ingests a deterministic mixed workload: A and AAAA
// answers across the TTL spectrum (short → Active, long → Long in Main),
// CNAME chains, and a second wave past the clear-up interval so rotation
// populates the Inactive generation too.
func genSnapshotWorkload(c *Correlator, n int) []stream.DNSRecord {
	rng := rand.New(rand.NewSource(7))
	var recs []stream.DNSRecord
	emit := func(i int, ts time.Time) {
		name := fmt.Sprintf("svc%03d.example", i%97)
		edge := fmt.Sprintf("edge%03d.cdn.example", i%97)
		var addr netip.Addr
		if i%3 == 0 {
			var a16 [16]byte
			rng.Read(a16[:])
			a16[0] = 0x20
			addr = netip.AddrFrom16(a16)
		} else {
			addr = netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), byte(rng.Intn(256))})
		}
		ttl := uint32(rng.Intn(7200) + 1)
		rt := stream.DNSRecord{
			Timestamp: ts, Query: edge, RType: 1, TTL: ttl,
			Answer: addr.String(), Addr: addr,
		}
		if addr.Is6() {
			rt.RType = 28
		}
		recs = append(recs, rt)
		if i%5 == 0 {
			recs = append(recs, stream.DNSRecord{
				Timestamp: ts, Query: name, RType: 5, TTL: 300, Answer: edge,
			})
		}
	}
	for i := 0; i < n/2; i++ {
		emit(i, snapBase.Add(time.Duration(i)*time.Millisecond))
	}
	// Second wave two hours later: the A clear-up interval (3600 s) has
	// elapsed, so Main rotates the first wave into Inactive.
	for i := n / 2; i < n; i++ {
		emit(i, snapBase.Add(2*time.Hour+time.Duration(i)*time.Millisecond))
	}
	for _, r := range recs {
		c.IngestDNS(r)
	}
	return recs
}

type dumpEntry struct {
	v   string
	exp int64
}

// dumpStore flattens a store family into per-generation key→(value, exp)
// maps, merged across splits — a layout-independent image of the state.
func dumpStore(s *store) map[string]map[string]dumpEntry {
	out := make(map[string]map[string]dumpEntry, 3)
	for name, maps := range map[string][]*cmap.Map{"active": s.active, "inactive": s.inactive, "long": s.long} {
		g := map[string]dumpEntry{}
		for _, m := range maps {
			m.RangeExpire(func(k, v string, exp int64) bool {
				g[k] = dumpEntry{v, exp}
				return true
			})
		}
		out[name] = g
	}
	return out
}

func diffDumps(t *testing.T, label string, want, got map[string]map[string]dumpEntry) {
	t.Helper()
	for gen, wm := range want {
		gm := got[gen]
		if len(gm) != len(wm) {
			t.Errorf("%s/%s: %d entries, want %d", label, gen, len(gm), len(wm))
		}
		for k, we := range wm {
			if ge, ok := gm[k]; !ok || ge != we {
				t.Errorf("%s/%s key %q: got %+v ok=%v, want %+v", label, gen, k, ge, ok, we)
				return // one detailed mismatch is enough
			}
		}
	}
}

func snapshotBytes(t *testing.T, c *Correlator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf, snapBase.UnixNano()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRestoreRoundTrip pins the tentpole property per variant:
// restore(snapshot(store)) reproduces the store exactly — every generation,
// both key spaces, values and typed expiries — when nothing has expired.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, variant := range []Variant{VariantMain, VariantExactTTL, VariantNoLong, VariantNoClearUp, VariantNoSplit} {
		t.Run(string(variant), func(t *testing.T) {
			c := New(ConfigForVariant(variant))
			genSnapshotWorkload(c, 2000)
			data := snapshotBytes(t, c)

			c2 := New(ConfigForVariant(variant))
			// Restore "now" = the latest record clock: nothing is expired yet.
			st, err := c2.Restore(bytes.NewReader(data), snapBase)
			if err != nil {
				t.Fatal(err)
			}
			if st.Entries == 0 || st.Expired != 0 {
				t.Fatalf("restore stats = %+v, want entries > 0, expired 0", st)
			}
			diffDumps(t, "ipName", dumpStore(c.ipName), dumpStore(c2.ipName))
			diffDumps(t, "nameCname", dumpStore(c.nameCname), dumpStore(c2.nameCname))
			ip1, cn1 := c.StoreSizes()
			ip2, cn2 := c2.StoreSizes()
			if ip1 != ip2 || cn1 != cn2 {
				t.Fatalf("sizes: (%d,%d) restored as (%d,%d)", ip1, cn1, ip2, cn2)
			}
			if st.Entries != ip1+cn1 {
				t.Fatalf("restore applied %d entries, store holds %d", st.Entries, ip1+cn1)
			}
		})
	}
}

// TestSnapshotRestoreDropsExpired pins the "modulo expiry" half of the
// property: an exact-TTL snapshot restored at a later clock drops exactly
// the entries whose stored expiry has passed, and lookups agree with a
// store that never went through the snapshot.
func TestSnapshotRestoreDropsExpired(t *testing.T) {
	cfg := ConfigForVariant(VariantExactTTL)
	c := New(cfg)
	recs := genSnapshotWorkload(c, 2000)
	data := snapshotBytes(t, c)

	// Restore one hour past the last wave: a large slice of the TTLs
	// (uniform in 1..7200 s) has expired by then.
	now := snapBase.Add(3 * time.Hour)
	c2 := New(cfg)
	st, err := c2.Restore(bytes.NewReader(data), now)
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired == 0 {
		t.Fatal("no entries expired; workload broken")
	}

	// The restored store must equal the original minus expired entries.
	want := dumpStore(c.ipName)
	for gen, m := range want {
		for k, e := range m {
			if e.exp != 0 && now.UnixNano() > e.exp {
				delete(m, k)
			}
		}
		want[gen] = m
	}
	diffDumps(t, "ipName", want, dumpStore(c2.ipName))

	// And lookups at `now` agree between original and restored store for
	// every ingested answer (both expired → miss, and live → hit).
	for _, r := range recs {
		if r.RType != 1 && r.RType != 28 {
			continue
		}
		fr := netflow.FlowRecord{
			Timestamp: now, SrcIP: r.Addr,
			DstIP: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			Bytes: 1, Packets: 1, SrcPort: 443, DstPort: 1, Proto: netflow.ProtoTCP,
		}
		got := c2.CorrelateFlow(fr)
		orig := c.CorrelateFlow(fr)
		if got.Name != orig.Name {
			t.Fatalf("lookup %s: restored %q, original %q", r.Addr, got.Name, orig.Name)
		}
	}
}

// TestSnapshotRestoreAcrossLayouts restores a snapshot into correlators
// with different split/lane layouts: placement is recomputed from the key
// hash, so the state must stay fully reachable.
func TestSnapshotRestoreAcrossLayouts(t *testing.T) {
	src := New(Config{NumSplit: 10, Lanes: 2})
	recs := genSnapshotWorkload(src, 1000)
	data := snapshotBytes(t, src)

	for _, cfg := range []Config{
		{NumSplit: 4, Lanes: 4},
		{DisableSplit: true},
		{NumSplit: 32, Lanes: 8},
	} {
		c2 := New(cfg)
		if _, err := c2.Restore(bytes.NewReader(data), snapBase); err != nil {
			t.Fatal(err)
		}
		ts := snapBase.Add(2*time.Hour + time.Hour)
		for _, r := range recs {
			if r.RType != 1 && r.RType != 28 {
				continue
			}
			name, tier := c2.lookupIP(ts, r.Addr)
			wantName, wantTier := src.lookupIP(ts, r.Addr)
			if name != wantName || tier != wantTier {
				t.Fatalf("layout %+v: lookup %s = (%q,%v), want (%q,%v)",
					cfg, r.Addr, name, tier, wantName, wantTier)
			}
		}
	}
}

// TestRestoreCorruptSnapshot pins recovery behaviour: a damaged stream
// reports ErrCorrupt, keeps the validated prefix, and New's restore-on-boot
// still comes up (partial warmth, never a refusal to start).
func TestRestoreCorruptSnapshot(t *testing.T) {
	c := New(DefaultConfig())
	genSnapshotWorkload(c, 1000)
	data := snapshotBytes(t, c)

	t.Run("truncated", func(t *testing.T) {
		c2 := New(DefaultConfig())
		st, err := c2.Restore(bytes.NewReader(data[:len(data)/2]), snapBase)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		ip, cn := c2.StoreSizes()
		if ip+cn != st.Entries {
			t.Fatalf("store holds %d entries, stats claim %d", ip+cn, st.Entries)
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		mut := bytes.Clone(data)
		mut[len(mut)/3] ^= 0x10
		c2 := New(DefaultConfig())
		if _, err := c2.Restore(bytes.NewReader(mut), snapBase); err == nil {
			// A flip can land in already-validated padding-free regions only;
			// every byte is covered by a CRC, so nil means the flip was in a
			// section we still applied — impossible.
			t.Fatal("corruption went undetected")
		}
	})

	t.Run("new-boots-on-corrupt-file", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "corrupt.snapshot")
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.SnapshotPath = path
		c2 := New(cfg)
		st, err := c2.RestoreResult()
		if err == nil {
			t.Fatal("RestoreResult error = nil for a truncated file")
		}
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		// The correlator is live regardless.
		c2.IngestDNS(stream.DNSRecord{
			Timestamp: snapBase, Query: "x.example", RType: 1, TTL: 60,
			Answer: "192.0.2.7", Addr: netip.MustParseAddr("192.0.2.7"),
		})
		if ip, _ := c2.StoreSizes(); ip < st.Entries+1 {
			t.Fatalf("store size %d after partial restore of %d + 1 fill", ip, st.Entries)
		}
	})
}

// TestNewRestoresFromCheckpoint is the in-process boot cycle: Checkpoint to
// a file, construct a fresh correlator pointed at it, and require the
// restored state to answer lookups (plus the stats counters to say so).
func TestNewRestoresFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snapshot")

	cfg := DefaultConfig()
	c := New(cfg)
	recs := genSnapshotWorkload(c, 500)
	if err := c.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	cfg2 := DefaultConfig()
	cfg2.SnapshotPath = path
	c2 := New(cfg2)
	st, err := c2.RestoreResult()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || st.Sections == 0 {
		t.Fatalf("restore stats = %+v", st)
	}
	if got := c2.Stats(); got.RestoredEntries != uint64(st.Entries) {
		t.Fatalf("Stats.RestoredEntries = %d, want %d", got.RestoredEntries, st.Entries)
	}
	hits := 0
	for _, r := range recs {
		if r.RType != 1 && r.RType != 28 {
			continue
		}
		if name, _ := c2.lookupIP(snapBase.Add(2*time.Hour), r.Addr); name != "" {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no lookup hits against restored state")
	}

	// Missing file: clean cold start, no error, zero stats.
	cfg3 := DefaultConfig()
	cfg3.SnapshotPath = filepath.Join(dir, "does-not-exist.snapshot")
	c3 := New(cfg3)
	if st, err := c3.RestoreResult(); err != nil || st.Sections != 0 {
		t.Fatalf("cold start: stats %+v, err %v", st, err)
	}
}

// TestRestoreReinterns verifies restored names flow through the lane
// interners: distinct store entries for one service name share one backing
// string, as a live-filled store's do.
func TestRestoreReinterns(t *testing.T) {
	c := New(DefaultConfig())
	// Many addresses, one name: the restored store should intern "one.name"
	// once per lane at most.
	for i := 0; i < 64; i++ {
		addr := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		c.IngestDNS(stream.DNSRecord{
			Timestamp: snapBase, Query: "one.name.example", RType: 1, TTL: 60,
			Answer: addr.String(), Addr: addr,
		})
	}
	data := snapshotBytes(t, c)
	c2 := New(DefaultConfig())
	if _, err := c2.Restore(bytes.NewReader(data), snapBase); err != nil {
		t.Fatal(err)
	}
	interned := 0
	for i := range c2.lanes {
		interned += c2.lanes[i].in.size()
	}
	if interned == 0 {
		t.Fatal("restore bypassed the interners")
	}
	if interned > len(c2.lanes) {
		t.Fatalf("one name interned %d times across %d lanes", interned, len(c2.lanes))
	}
}

// TestCheckpointDuringFills races Checkpoint against concurrent ingestion:
// the fuzzy snapshot must stay structurally valid and every entry it
// captures must be a value that was actually written.
func TestCheckpointDuringFills(t *testing.T) {
	c := New(DefaultConfig())
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			addr := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
			c.IngestDNS(stream.DNSRecord{
				Timestamp: snapBase.Add(time.Duration(i) * time.Millisecond),
				Query:     fmt.Sprintf("svc%d.example", i%13), RType: 1, TTL: 300,
				Answer: addr.String(), Addr: addr,
			})
			i++
		}
	}()
	for round := 0; round < 20; round++ {
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf, snapBase.UnixNano()); err != nil {
			t.Fatal(err)
		}
		c2 := New(DefaultConfig())
		if _, err := c2.Restore(bytes.NewReader(buf.Bytes()), snapBase); err != nil {
			t.Fatalf("round %d: fuzzy snapshot failed to restore: %v", round, err)
		}
	}
	close(stop)
	<-done
}
