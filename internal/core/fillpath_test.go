package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dnswire"
	"repro/internal/stream"
)

// aRecTyped is aRec with the address carried typed, as the wire decoder and
// capture reader deliver it.
func aRecTyped(ts time.Time, query, ip string, ttl uint32) stream.DNSRecord {
	return stream.DNSRecord{Timestamp: ts, Query: query, RType: dnswire.TypeA,
		TTL: ttl, Addr: netip.MustParseAddr(ip)}
}

// --- exact-TTL boundary semantics after the typed-expiry swap ---

func TestExactTTLBoundary(t *testing.T) {
	cfg := ConfigForVariant(VariantExactTTL)
	cases := []struct {
		name   string
		ttl    uint32
		offset time.Duration // flow timestamp relative to the record
		hit    bool
	}{
		// The A.8 condition is TTL_dns + Timestamp_dns < Timestamp_netflow:
		// a flow stamped exactly at expiry still matches.
		{"at-expiry", 300, 300 * time.Second, true},
		{"one-ns-past-expiry", 300, 300*time.Second + time.Nanosecond, false},
		{"one-ns-before-expiry", 300, 300*time.Second - time.Nanosecond, true},
		{"far-past-expiry", 300, 24 * time.Hour, false},
		{"far-future-expiry", 7 * 24 * 3600, time.Hour, true},
		{"zero-ttl-same-instant", 0, 0, true},
		{"zero-ttl-next-ns", 0, time.Nanosecond, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(cfg)
			c.IngestDNS(aRecTyped(t0, "svc.example", "198.51.100.80", tc.ttl))
			cf := c.CorrelateFlow(flow(t0.Add(tc.offset), "198.51.100.80", 10))
			if cf.Correlated() != tc.hit {
				t.Fatalf("ttl=%d offset=%v: correlated=%v, want %v",
					tc.ttl, tc.offset, cf.Correlated(), tc.hit)
			}
		})
	}
}

// --- golden equivalence: typed expiry vs the old string encoding ---

// oracleStore reimplements the pre-typed-expiry Active generation: values
// encoded as "value\x00unixNano" on put and decoded on every hit, with the
// original After() comparison. The golden test replays one corpus through
// the real exact-TTL correlator and through this oracle and demands
// identical correlation outcomes flow by flow.
type oracleStore struct {
	m map[netip.Addr]string
}

func (o *oracleStore) put(rec stream.DNSRecord) {
	exp := rec.Timestamp.Add(time.Duration(rec.TTL) * time.Second)
	o.m[rec.Addr] = rec.Query + "\x00" + strconv.FormatInt(exp.UnixNano(), 10)
}

func (o *oracleStore) get(now time.Time, addr netip.Addr) (string, bool) {
	v, ok := o.m[addr]
	if !ok {
		return "", false
	}
	i := strings.LastIndexByte(v, 0)
	ns, err := strconv.ParseInt(v[i+1:], 10, 64)
	if err != nil {
		return "", false
	}
	if now.After(time.Unix(0, ns)) {
		return "", false
	}
	return v[:i], true
}

func TestExactTTLGoldenEquivalence(t *testing.T) {
	cfg := ConfigForVariant(VariantExactTTL)
	// Sweeps only remove entries the lookup already rejects, so they cannot
	// change outcomes; disabling them keeps the oracle trivially in sync.
	cfg.ExactTTLSweepInterval = 365 * 24 * time.Hour
	c := New(cfg)
	oracle := &oracleStore{m: make(map[netip.Addr]string)}

	r := rand.New(rand.NewSource(7))
	ttls := []uint32{0, 5, 30, 60, 300, 3600, 86400}
	clock := t0
	var flowsChecked, hits int
	for i := 0; i < 5000; i++ {
		clock = clock.Add(time.Duration(r.Intn(2000)) * time.Millisecond)
		ip := fmt.Sprintf("198.51.%d.%d", r.Intn(4), 1+r.Intn(200))
		if r.Intn(3) > 0 {
			rec := aRecTyped(clock, fmt.Sprintf("svc%d.example", r.Intn(64)), ip, ttls[r.Intn(len(ttls))])
			c.IngestDNS(rec)
			oracle.put(rec)
			continue
		}
		// Flow timestamps also probe slightly behind the record clock, so
		// both just-expired and still-valid entries are exercised.
		ts := clock.Add(time.Duration(r.Intn(600)-120) * time.Second)
		addr := netip.MustParseAddr(ip)
		cf := c.CorrelateFlow(flow(ts, ip, 10))
		wantName, wantHit := oracle.get(ts, addr)
		flowsChecked++
		if cf.Correlated() != wantHit {
			t.Fatalf("flow %d (ts=%v ip=%s): correlated=%v, oracle says %v",
				i, ts, ip, cf.Correlated(), wantHit)
		}
		if wantHit {
			hits++
			if cf.Name != wantName {
				t.Fatalf("flow %d: name %q, oracle says %q", i, cf.Name, wantName)
			}
		}
	}
	if flowsChecked < 1000 || hits < 100 {
		t.Fatalf("corpus too thin: %d flows, %d hits", flowsChecked, hits)
	}
}

// --- batched ingest equivalence ---

func TestIngestDNSBatchMatchesSingle(t *testing.T) {
	for _, variant := range []Variant{VariantMain, VariantExactTTL, VariantNoLong, VariantNoSplit} {
		t.Run(string(variant), func(t *testing.T) {
			cfg := ConfigForVariant(variant)
			// Sweep timing is batch-granular on the batched path (the clock
			// advances once per batch), so sweeps would remove expired
			// entries at slightly different instants; disable them to keep
			// store sizes exactly comparable. Lookup outcomes are unaffected
			// either way — expired entries never match.
			cfg.ExactTTLSweepInterval = 365 * 24 * time.Hour
			single := New(cfg)
			batched := New(cfg)

			r := rand.New(rand.NewSource(11))
			var recs []stream.DNSRecord
			clock := t0
			for i := 0; i < 1000; i++ {
				clock = clock.Add(time.Duration(r.Intn(500)) * time.Millisecond)
				switch r.Intn(4) {
				case 0:
					recs = append(recs, cnameRec(clock, fmt.Sprintf("alias%d.example", r.Intn(32)),
						fmt.Sprintf("edge%d.cdn.example", r.Intn(16)), uint32(r.Intn(7200))))
				case 1:
					// Long-TTL records exercise the Long-generation item group.
					recs = append(recs, aRecTyped(clock, fmt.Sprintf("svc%d.example", r.Intn(64)),
						fmt.Sprintf("198.51.100.%d", 1+r.Intn(250)), 86400))
				case 2:
					// Invalid record: empty query. Both paths must count it.
					recs = append(recs, stream.DNSRecord{Timestamp: clock, RType: dnswire.TypeA, Answer: "198.51.100.9"})
				default:
					recs = append(recs, aRecTyped(clock, fmt.Sprintf("svc%d.example", r.Intn(64)),
						fmt.Sprintf("198.51.101.%d", 1+r.Intn(250)), uint32(r.Intn(600))))
				}
			}
			for _, rec := range recs {
				single.IngestDNS(rec)
			}
			for i := 0; i < len(recs); i += 96 {
				batched.IngestDNSBatch(recs[i:min(i+96, len(recs))])
			}

			sIP, sCN := single.StoreSizes()
			bIP, bCN := batched.StoreSizes()
			if sIP != bIP || sCN != bCN {
				t.Fatalf("store sizes diverge: single %d/%d, batched %d/%d", sIP, sCN, bIP, bCN)
			}
			ss, bs := single.Stats(), batched.Stats()
			if ss.DNSRecords != bs.DNSRecords || ss.DNSInvalid != bs.DNSInvalid {
				t.Fatalf("stats diverge: single %d/%d, batched %d/%d",
					ss.DNSRecords, ss.DNSInvalid, bs.DNSRecords, bs.DNSInvalid)
			}
			// Every lookup resolves identically.
			for i := 0; i < 250; i++ {
				ip := fmt.Sprintf("198.51.%d.%d", 100+r.Intn(2), 1+r.Intn(250))
				ts := clock.Add(time.Duration(r.Intn(120)-60) * time.Second)
				a := single.CorrelateFlow(flow(ts, ip, 10))
				b := batched.CorrelateFlow(flow(ts, ip, 10))
				if a.Name != b.Name || a.Tier != b.Tier {
					t.Fatalf("lookup %s diverges: single (%q, %v), batched (%q, %v)",
						ip, a.Name, a.Tier, b.Name, b.Tier)
				}
			}
		})
	}
}

// --- name interning ---

func TestInterningSharesValueStorage(t *testing.T) {
	c := New(DefaultConfig())
	// Interners are per lane, so pick two addresses that the answer
	// partition routes to the same lane (cross-lane duplication is by
	// design: at most one copy of a name per lane).
	first := "198.51.100.91"
	probe := aRecTyped(t0, "x", first, 1)
	lane := c.LaneFor(&probe)
	second := ""
	for i := 1; i < 250; i++ {
		ip := fmt.Sprintf("198.51.101.%d", i)
		r := aRecTyped(t0, "x", ip, 1)
		if c.LaneFor(&r) == lane {
			second = ip
			break
		}
	}
	if second == "" {
		t.Fatal("no second address on the same lane")
	}
	// Two entries for the same service name arrive as two distinct string
	// allocations, as two decoded wire messages would.
	name1 := strings.Clone("cdn-edge.example")
	name2 := strings.Clone("cdn-edge.example")
	if unsafe.StringData(name1) == unsafe.StringData(name2) {
		t.Fatal("test setup: clones share storage")
	}
	c.IngestDNS(stream.DNSRecord{Timestamp: t0, Query: name1, RType: dnswire.TypeA,
		TTL: 300, Addr: netip.MustParseAddr(first)})
	c.IngestDNS(stream.DNSRecord{Timestamp: t0, Query: name2, RType: dnswire.TypeA,
		TTL: 300, Addr: netip.MustParseAddr(second)})
	a := c.CorrelateFlow(flow(t0.Add(time.Second), first, 10))
	b := c.CorrelateFlow(flow(t0.Add(time.Second), second, 10))
	if a.Name != "cdn-edge.example" || b.Name != "cdn-edge.example" {
		t.Fatalf("lookups = %q, %q", a.Name, b.Name)
	}
	if unsafe.StringData(a.Name) != unsafe.StringData(b.Name) {
		t.Fatal("stored values for the same name do not share one backing string")
	}
}

func TestInternerResetAtCapacity(t *testing.T) {
	in := newInterner(8)
	canon := in.intern(strings.Clone("keep.example"))
	for i := 0; i < 8; i++ {
		in.intern(fmt.Sprintf("fill%d.example", i))
	}
	if in.size() > 8 {
		t.Fatalf("interner grew past cap: %d", in.size())
	}
	// After the reset the canonical string is gone from the table but the
	// handed-out copy is untouched; a re-intern re-canonicalizes.
	again := in.intern(strings.Clone("keep.example"))
	if again != canon {
		t.Fatalf("re-intern = %q, want equal content", again)
	}
}

// --- DNS partition onto lanes ---

func TestFillLanePartitionDeterministic(t *testing.T) {
	c := New(DefaultConfig())
	rec := aRecTyped(t0, "svc.example", "198.51.100.77", 300)
	want := c.LaneFor(&rec)
	for i := 0; i < 100; i++ {
		r := aRecTyped(t0.Add(time.Duration(i)*time.Second), fmt.Sprintf("q%d.example", i), "198.51.100.77", 300)
		if got := c.LaneFor(&r); got != want {
			t.Fatalf("same answer address landed on lanes %d and %d", want, got)
		}
	}
	// The record's lane owns exactly the splits its store put touches:
	// lane == splitFor's lane component.
	a16 := rec.Addr.As16()
	h := ipHash(&a16)
	split := c.ipName.splitFor(h)
	if lane := split / c.ipName.perLane; lane != want {
		t.Fatalf("lane %d does not own split %d (lane %d)", want, split, lane)
	}
}

func TestOfferDNSRoutesAndCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 4
	cfg.FillQueueCap = 64 // 16 per lane
	c := New(cfg)
	var recs []stream.DNSRecord
	for i := 0; i < 40; i++ {
		recs = append(recs, aRecTyped(t0, "svc.example", fmt.Sprintf("198.51.100.%d", i+1), 300))
	}
	accepted := c.OfferDNSBatch(recs)
	if accepted != 40 {
		t.Fatalf("accepted = %d, want 40", accepted)
	}
	fill, _ := ringDepths(c)
	if fill != 40 {
		t.Fatalf("fill depth = %d, want 40", fill)
	}
	depths, _ := c.LaneDepths()
	total, nonEmpty := 0, 0
	for _, d := range depths {
		total += d
		if d > 0 {
			nonEmpty++
		}
	}
	if total != 40 || nonEmpty < 2 {
		t.Fatalf("lane depths = %v, want 40 spread over >=2 lanes", depths)
	}
	if st := c.Stats(); st.Lanes != 4 || st.FillQueue.Enqueued != 40 {
		t.Fatalf("stats = Lanes %d, enqueued %d", st.Lanes, st.FillQueue.Enqueued)
	}
}

func TestOfferDNSOverflowDropsAndCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 1
	cfg.FillQueueCap = 8
	c := New(cfg)
	var recs []stream.DNSRecord
	for i := 0; i < 20; i++ {
		recs = append(recs, aRecTyped(t0, "svc.example", fmt.Sprintf("198.51.100.%d", i+1), 300))
	}
	accepted := c.OfferDNSBatch(recs)
	if accepted != 8 {
		t.Fatalf("accepted = %d, want 8 (queue cap)", accepted)
	}
	if st := c.Stats(); st.FillQueue.Dropped != 12 {
		t.Fatalf("dropped = %d, want 12", st.FillQueue.Dropped)
	}
}

func TestIngestDNSBatchRejectedRecordsDontAdvanceClock(t *testing.T) {
	// A rejected record (unparsable answer) with a garbage far-future
	// timestamp must not advance the sweep/clear-up clock: with the bug, a
	// single corrupt capture line would sweep every live entry as expired.
	cfg := ConfigForVariant(VariantExactTTL)
	cfg.ExactTTLSweepInterval = 60 * time.Second
	c := New(cfg)
	c.IngestDNSBatch([]stream.DNSRecord{aRecTyped(t0, "svc.example", "198.51.100.5", 300)})
	bad := stream.DNSRecord{Timestamp: t0.Add(1000 * time.Hour), Query: "x.example",
		RType: dnswire.TypeA, TTL: 300, Answer: "not-an-ip"}
	c.IngestDNSBatch([]stream.DNSRecord{
		aRecTyped(t0.Add(time.Second), "svc2.example", "198.51.100.6", 300),
		bad,
	})
	if st := c.Stats(); st.DNSInvalid != 1 || st.Sweeps != 0 {
		t.Fatalf("invalid=%d sweeps=%d, want 1/0", st.DNSInvalid, st.Sweeps)
	}
	if cf := c.CorrelateFlow(flow(t0.Add(2*time.Second), "198.51.100.5", 10)); !cf.Correlated() {
		t.Fatal("live entry lost: rejected record's timestamp advanced the clock")
	}
}

func TestOfferDNSStringAndTypedRouteSameLane(t *testing.T) {
	// A string-only producer's record for an address must land on the same
	// lane as a wire source's typed record for it — the offer path
	// materializes the typed address before partitioning — so cross-lane
	// reordering can never break last-write-wins between producers.
	cfg := DefaultConfig()
	cfg.Lanes = 8
	c := New(cfg)
	typed := aRecTyped(t0, "svc.example", "198.51.100.33", 300)
	stringOnly := aRec(t0, "svc.example", "198.51.100.33", 300)
	if !offerDNS(c, typed) || !offerDNS(c, stringOnly) {
		t.Fatal("offers rejected")
	}
	depths, _ := c.LaneDepths()
	lanes := 0
	for _, d := range depths {
		if d > 0 {
			lanes++
			if d != 2 {
				t.Fatalf("records split across lanes: %v", depths)
			}
		}
	}
	if lanes != 1 {
		t.Fatalf("records on %d lanes, want 1: %v", lanes, depths)
	}
}
