package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/netip"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

// compatBase is the record clock of the compatibility workloads.
var compatBase = time.Unix(1_653_475_200, 0)

// compatWorkload fills c with the state testdata/compat-main.snap.gz and
// testdata/compat-exact.snap.gz hold. Both files were written by
// Correlator.Checkpoint of the commit before cmap became one generic table
// (the one with a Go-map string space beside the address table), after this
// same workload, so they pin that a checkpoint from that build still
// restores.
//
// Under DefaultConfig the state covers both families in all three
// generations: a first wave rotates into Inactive when a second wave arrives
// three hours later (past both clear-up intervals), TTLs at or above the
// interval land in Long, and the final CorrelateFlow walks a two-hop chain
// and memoizes it into NAME-CNAME's Active generation.
func compatWorkload(c *Correlator) {
	a := func(ts time.Time, name string, addr netip.Addr, ttl uint32) {
		rt := dnswire.TypeA
		if addr.Is6() {
			rt = dnswire.TypeAAAA
		}
		c.IngestDNS(stream.DNSRecord{Timestamp: ts, Query: name, RType: rt, TTL: ttl, Answer: addr.String(), Addr: addr})
	}
	cname := func(ts time.Time, alias, canonical string, ttl uint32) {
		c.IngestDNS(stream.DNSRecord{Timestamp: ts, Query: alias, RType: dnswire.TypeCNAME, TTL: ttl, Answer: canonical})
	}
	for wave, ts := range []time.Time{compatBase, compatBase.Add(3 * time.Hour)} {
		for i := 0; i < 6; i++ {
			n := wave*6 + i
			edge := fmt.Sprintf("e%d.cdn.example", n)
			ttl := uint32(60)
			if i >= 4 {
				ttl = 7200 // long generation
			}
			a(ts, edge, netip.AddrFrom4([4]byte{198, 51, 100, byte(n + 1)}), ttl)
			cttl := uint32(300)
			if i == 5 {
				cttl = 86400 // long generation of NAME-CNAME
			}
			cname(ts, fmt.Sprintf("mid%d.example", n), edge, cttl)
			cname(ts, fmt.Sprintf("svc%d.example", n), fmt.Sprintf("mid%d.example", n), cttl)
		}
		a(ts, fmt.Sprintf("v6-%d.example", wave), netip.MustParseAddr(fmt.Sprintf("2001:db8::%d", wave+1)), 60)
	}
	// One two-hop walk writes the §3.3 memo entry e6.cdn.example → svc6.
	c.CorrelateFlow(compatFlow(compatBase.Add(3*time.Hour), netip.AddrFrom4([4]byte{198, 51, 100, 7})))
}

func compatFlow(ts time.Time, src netip.Addr) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: ts, SrcIP: src, DstIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		SrcPort: 443, DstPort: 50000, Proto: netflow.ProtoTCP, Packets: 1, Bytes: 100,
	}
}

// compatAnswer is what CorrelateFlow made of one probe flow.
type compatAnswer struct {
	Name     string
	Tier     Tier
	ChainLen int
}

// compatAnswers correlates one flow per workload address, plus one address
// nothing answered, at ts, in that order (a multi-hop walk memoizes, so
// order matters).
func compatAnswers(c *Correlator, ts time.Time) []compatAnswer {
	var srcs []netip.Addr
	for n := 0; n < 12; n++ {
		srcs = append(srcs, netip.AddrFrom4([4]byte{198, 51, 100, byte(n + 1)}))
	}
	srcs = append(srcs, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2"), netip.AddrFrom4([4]byte{192, 0, 2, 1}))
	out := make([]compatAnswer, 0, len(srcs))
	for _, src := range srcs {
		cf := c.CorrelateFlow(compatFlow(ts, src))
		out = append(out, compatAnswer{cf.Name, cf.Tier, cf.ChainLen})
	}
	return out
}

// compatExactConfig is the exact-TTL correlator of compat-exact.snap.gz.
func compatExactConfig() Config {
	cfg := DefaultConfig()
	cfg.ExactTTL = true
	return cfg
}

// compatExactWorkload is the small exact-TTL state: every entry carries its
// typed expiry, and the restore below runs late enough that the 60 s
// records have expired while the 300 s ones have not.
func compatExactWorkload(c *Correlator) {
	for i := 0; i < 4; i++ {
		addr := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		ttl := uint32(60)
		if i%2 == 1 {
			ttl = 300
		}
		c.IngestDNS(stream.DNSRecord{Timestamp: compatBase, Query: fmt.Sprintf("x%d.cdn.example", i), RType: dnswire.TypeA, TTL: ttl, Answer: addr.String(), Addr: addr})
		c.IngestDNS(stream.DNSRecord{Timestamp: compatBase, Query: fmt.Sprintf("xsvc%d.example", i), RType: dnswire.TypeCNAME, TTL: ttl, Answer: fmt.Sprintf("x%d.cdn.example", i)})
	}
}

func compatExactAnswers(c *Correlator, ts time.Time) []compatAnswer {
	var out []compatAnswer
	for i := 0; i < 5; i++ {
		cf := c.CorrelateFlow(compatFlow(ts, netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})))
		out = append(out, compatAnswer{cf.Name, cf.Tier, cf.ChainLen})
	}
	return out
}

// readCompat returns the decompressed bytes of a testdata checkpoint.
func readCompat(t *testing.T, name string) []byte {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreCompatCheckpoints restores the two checked-in checkpoints and
// compares RestoreStats, StoreSizes and the answers for a fixed flow set
// with what the build that wrote them read back from the same files. It
// also replays the workload on this build: the live state must equal the
// restored one, generation by generation.
func TestRestoreCompatCheckpoints(t *testing.T) {
	cases := []struct {
		file     string
		cfg      Config
		workload func(*Correlator)
		restore  time.Time // Restore's now and the probe flows' timestamp
		answers  func(*Correlator, time.Time) []compatAnswer
		stats    RestoreStats
		ip, name int
		want     []compatAnswer
	}{
		{
			file:     "compat-main.snap.gz",
			cfg:      DefaultConfig(),
			workload: compatWorkload,
			restore:  compatBase.Add(3*time.Hour + time.Minute),
			answers:  compatAnswers,
			stats:    RestoreStats{Sections: 15, Entries: 38, Expired: 0, Created: 1792426779070573430},
			ip:       14, name: 24,
			want: []compatAnswer{
				{"svc0.example", TierInactive, 2}, {"svc1.example", TierInactive, 2},
				{"svc2.example", TierInactive, 2}, {"svc3.example", TierInactive, 2},
				{"svc4.example", TierLong, 2}, {"svc5.example", TierLong, 2},
				{"svc6.example", TierActive, 1}, {"svc7.example", TierActive, 2},
				{"svc8.example", TierActive, 2}, {"svc9.example", TierActive, 2},
				{"svc10.example", TierLong, 2}, {"svc11.example", TierLong, 2},
				{"v6-0.example", TierInactive, 0}, {"v6-1.example", TierActive, 0},
				{"", TierNone, 0},
			},
		},
		{
			file:     "compat-exact.snap.gz",
			cfg:      compatExactConfig(),
			workload: compatExactWorkload,
			restore:  compatBase.Add(90 * time.Second),
			answers:  compatExactAnswers,
			stats:    RestoreStats{Sections: 4, Entries: 4, Expired: 4, Created: 1792426779088991566},
			ip:       2, name: 2,
			want: []compatAnswer{
				{"", TierNone, 0}, {"xsvc1.example", TierActive, 1},
				{"", TierNone, 0}, {"xsvc3.example", TierActive, 1},
				{"", TierNone, 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data := readCompat(t, tc.file)
			c := New(tc.cfg)
			st, err := c.Restore(bytes.NewReader(data), tc.restore)
			if err != nil {
				t.Fatal(err)
			}
			if st != tc.stats {
				t.Errorf("RestoreStats = %+v, want %+v", st, tc.stats)
			}
			if ip, name := c.StoreSizes(); ip != tc.ip || name != tc.name {
				t.Errorf("StoreSizes = %d, %d; want %d, %d", ip, name, tc.ip, tc.name)
			}
			if got := tc.answers(c, tc.restore); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("answers = %+v\nwant      %+v", got, tc.want)
			}

			// Restored before anything expires, the checkpoint holds exactly
			// what the workload builds here.
			restored := New(tc.cfg)
			if _, err := restored.Restore(bytes.NewReader(data), compatBase); err != nil {
				t.Fatal(err)
			}
			live := New(tc.cfg)
			tc.workload(live)
			diffDumps(t, "ipName", dumpStore(live.ipName), dumpStore(restored.ipName))
			diffDumps(t, "nameCname", dumpStore(live.nameCname), dumpStore(restored.nameCname))
		})
	}
}

// TestRestoreSkipsForeignKeySpace feeds the two sections no writer
// produces — an IP-NAME section without SectionFlagBinaryKeys and a
// NAME-CNAME section with it — beside one valid section of each family.
// The foreign ones are skipped whole; the valid ones apply.
func TestRestoreSkipsForeignKeySpace(t *testing.T) {
	addr := netip.AddrFrom4([4]byte{198, 51, 100, 1}).As16()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	sections := []struct {
		family, flags uint8
		key           []byte
	}{
		{familyIPName, snapshot.SectionFlagBinaryKeys, addr[:]},
		{familyIPName, 0, []byte("198.51.100.2")},
		{familyNameCname, 0, []byte("edge.cdn.example")},
		{familyNameCname, snapshot.SectionFlagBinaryKeys, addr[:]},
	}
	for _, s := range sections {
		if err := w.Begin(s.family, genActive, s.flags, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Entry(s.key, "svc.example", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig())
	st, err := c.Restore(&buf, compatBase)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sections != 4 || st.Entries != 2 || st.Expired != 0 {
		t.Fatalf("RestoreStats = %+v, want 4 sections, 2 entries applied", st)
	}
	if ip, name := c.StoreSizes(); ip != 1 || name != 1 {
		t.Fatalf("StoreSizes = %d, %d; want 1, 1", ip, name)
	}
	if cf := c.CorrelateFlow(compatFlow(compatBase, netip.AddrFrom4([4]byte{198, 51, 100, 1}))); cf.Name != "svc.example" {
		t.Fatalf("restored address resolves to %q", cf.Name)
	}
}
