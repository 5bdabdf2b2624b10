package core

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/queue"
	"repro/internal/stream"
)

func laneFlow(ts time.Time, srcIP, dstIP string, bytes uint64) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: ts,
		SrcIP:     netip.MustParseAddr(srcIP),
		DstIP:     netip.MustParseAddr(dstIP),
		Packets:   1, Bytes: bytes, Proto: netflow.ProtoTCP,
	}
}

// TestLanePartitionInvariant pins the partitioning contract: the lane of an
// address is a pure function of it, and a flow routes to the lane that owns
// the split of the address it is resolved by — its source, its
// destination, or for LookupBoth its source (the first probe) — so OfferFlow
// enqueues on exactly that lane's flow ring.
func TestLanePartitionInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 8
	c := New(cfg)
	if c.Lanes() != 8 {
		t.Fatalf("Lanes() = %d, want 8", c.Lanes())
	}
	seen := make(map[string]int)
	for i := 0; i < 256; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, byte(i / 16), byte(i%16 + 1)})
		lane := c.laneFor(dst)
		if lane < 0 || lane >= 8 {
			t.Fatalf("laneFor(%v) = %d out of range", dst, lane)
		}
		if prev, ok := seen[dst.String()]; ok && prev != lane {
			t.Fatalf("dst %v moved lanes: %d then %d", dst, prev, lane)
		}
		seen[dst.String()] = lane
		// Same address again — and as a v4-mapped v6 address — must agree.
		if l2 := c.laneFor(dst); l2 != lane {
			t.Fatalf("laneFor(%v) unstable: %d vs %d", dst, lane, l2)
		}
		mapped := netip.AddrFrom16(dst.As16())
		if l3 := c.laneFor(mapped); l3 != lane {
			t.Fatalf("v4-mapped %v landed on lane %d, v4 on %d", mapped, l3, lane)
		}
	}
	// The partition must actually spread destinations across lanes.
	used := make(map[int]bool)
	for _, l := range seen {
		used[l] = true
	}
	if len(used) < 4 {
		t.Fatalf("256 destinations used only %d of 8 lanes", len(used))
	}

	for _, key := range []LookupKey{LookupSource, LookupDestination, LookupBoth} {
		cfg.Key = key
		c := New(cfg)
		moved := 0
		for i := 0; i < 64; i++ {
			fr := laneFlow(t0, fmt.Sprintf("198.51.100.%d", i+1), fmt.Sprintf("203.0.113.%d", 200-i), 100)
			addr := fr.SrcIP
			if key == LookupDestination {
				addr = fr.DstIP
			}
			a16 := addr.As16()
			owner := c.ipName.splitFor(ipHash(&a16)) / c.ipName.perLane
			if got := c.flowLane(&fr); got != owner {
				t.Fatalf("key %v: flow %v→%v on lane %d, its lookup address's split is lane %d's",
					key, fr.SrcIP, fr.DstIP, got, owner)
			}
			if c.laneFor(fr.SrcIP) != c.laneFor(fr.DstIP) {
				moved++
			}
			// OfferFlow routes onto the owning lane's flow ring.
			_, before := c.LaneDepths()
			if !offerFlow(c, fr) {
				t.Fatal("offer rejected on empty queue")
			}
			_, after := c.LaneDepths()
			for l := range after {
				want := before[l]
				if l == owner {
					want++
				}
				if after[l] != want {
					t.Fatalf("key %v: lane %d depth %d after the offer, want %d", key, l, after[l], want)
				}
			}
		}
		if moved == 0 {
			t.Fatal("test flows never separate source and destination lanes")
		}
	}
}

// TestLaneDefaults pins the config fallbacks: Lanes defaults to NumSplit
// (the paper's per-split design), and the NoSplit ablation collapses to a
// single lane.
func TestLaneDefaults(t *testing.T) {
	if got := DefaultConfig().normalized().Lanes; got != DefaultNumSplit {
		t.Fatalf("default lanes = %d, want NumSplit %d", got, DefaultNumSplit)
	}
	if got := ConfigForVariant(VariantNoSplit).normalized().Lanes; got != 1 {
		t.Fatalf("NoSplit lanes = %d, want 1", got)
	}
	cfg := DefaultConfig()
	cfg.Lanes = 3
	if got := cfg.normalized().Lanes; got != 3 {
		t.Fatalf("explicit lanes = %d, want 3", got)
	}
	// A built correlator has one DNS and one flow ring per lane.
	c := New(DefaultConfig())
	if dns, flows := c.LaneDepths(); c.Lanes() != DefaultNumSplit || len(dns) != DefaultNumSplit || len(flows) != DefaultNumSplit {
		t.Fatalf("Lanes() = %d, LaneDepths = %v / %v", c.Lanes(), dns, flows)
	}
}

// TestLaneLedgerSumsOverLanes overloads sampled lanes no worker drains, so
// every lane's DNS and flow ring enqueues, sheds and drops, and requires
// the counters Stats sums over the lanes to account for every offered
// record.
func TestLaneLedgerSumsOverLanes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 3
	cfg.FillQueueCap, cfg.LookQueueCap = 48, 48 // 16 per lane ring
	cfg.SampleLowWater, cfg.SampleHighWater, cfg.SampleMaxShed = 0.25, 0.75, 0.5
	c := New(cfg)
	const offered = 600
	ts := time.Unix(1653475200, 0)
	dnsAccepted, flowAccepted := 0, 0
	for base := 0; base < offered; base += 20 {
		recs := make([]stream.DNSRecord, 20)
		frs := make([]netflow.FlowRecord, 20)
		for i := range frs {
			addr := netip.AddrFrom4([4]byte{10, 1, byte((base + i) / 256), byte(base + i)})
			recs[i] = stream.DNSRecord{Timestamp: ts, Query: "svc.example", RType: dnswire.TypeA, TTL: 60, Addr: addr}
			frs[i] = netflow.FlowRecord{Timestamp: ts, SrcIP: addr, DstIP: addr}
		}
		dnsAccepted += c.OfferDNSBatch(recs)
		flowAccepted += c.OfferFlowBatch(frs)
	}
	st := c.Stats()
	for _, ring := range []struct {
		name     string
		st       queue.Stats
		accepted int
		lanes    func(*lane) queue.Stats
	}{
		{"dns", st.FillQueue, dnsAccepted, func(ln *lane) queue.Stats { return ln.dns.Stats() }},
		{"flow", st.LookQueue, flowAccepted, func(ln *lane) queue.Stats { return ln.flows.Stats() }},
	} {
		qs := ring.st
		if qs.Offered() != offered || qs.Enqueued+qs.Dropped+qs.Sampled != offered {
			t.Fatalf("%s ledger: offered %d != enqueued %d + dropped %d + sampled %d (sent %d)",
				ring.name, qs.Offered(), qs.Enqueued, qs.Dropped, qs.Sampled, offered)
		}
		if qs.Enqueued != 48 || qs.Sampled == 0 || qs.Dropped == 0 {
			t.Fatalf("%s: want full lanes and both loss kinds exercised, got %+v", ring.name, qs)
		}
		if uint64(ring.accepted) != qs.Enqueued+qs.Sampled {
			t.Fatalf("%s: offers returned %d accepted, rings say %d", ring.name, ring.accepted, qs.Enqueued+qs.Sampled)
		}
		var perLane uint64
		for i := range c.lanes {
			ls := ring.lanes(&c.lanes[i])
			if ls.Offered() != ls.Enqueued+ls.Dropped+ls.Sampled {
				t.Fatalf("%s lane %d ledger broken: %+v", ring.name, i, ls)
			}
			perLane += ls.Offered()
		}
		if perLane != offered {
			t.Fatalf("%s lanes saw %d records, want %d", ring.name, perLane, offered)
		}
	}
	if fill, look := c.QueueDepths(); fill != 48 || look != 48 {
		t.Fatalf("QueueDepths = %d, %d; want 48, 48", fill, look)
	}
	dns, flows := c.LaneDepths()
	for l := range c.lanes {
		if dns[l] != 16 || flows[l] != 16 {
			t.Fatalf("lane %d depths = %d, %d; want 16, 16", l, dns[l], flows[l])
		}
	}
}

// TestCorrelateBatchMatchesCorrelateFlow checks the batch lane-worker path
// and the single-flow path produce identical results and identical stats.
func TestCorrelateBatchMatchesCorrelateFlow(t *testing.T) {
	mk := func() *Correlator {
		c := New(DefaultConfig())
		c.IngestDNS(cnameRec(t0, "service.com", "edge.cdn.net", 300))
		c.IngestDNS(aRec(t0, "edge.cdn.net", "198.51.100.10", 60))
		c.IngestDNS(aRec(t0, "plain.example", "198.51.100.11", 60))
		return c
	}
	frs := []netflow.FlowRecord{
		laneFlow(t0.Add(time.Second), "198.51.100.10", "203.0.113.1", 100),
		laneFlow(t0.Add(time.Second), "198.51.100.11", "203.0.113.2", 200),
		laneFlow(t0.Add(time.Second), "198.51.100.99", "203.0.113.3", 300), // miss
		{}, // invalid
	}
	single := mk()
	var want []CorrelatedFlow
	for _, fr := range frs {
		want = append(want, single.CorrelateFlow(fr))
	}
	batch := mk()
	got := batch.CorrelateBatch(nil, frs)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Tier != want[i].Tier || got[i].ChainLen != want[i].ChainLen {
			t.Fatalf("record %d: batch %+v, single %+v", i, got[i], want[i])
		}
	}
	bs, ss := batch.Stats(), single.Stats()
	bs.NameCnameEntries, ss.NameCnameEntries = 0, 0 // memoization writes are shared state, compared below
	bs.IPNameEntries, ss.IPNameEntries = 0, 0
	if bs.Flows != ss.Flows || bs.Correlated != ss.Correlated || bs.Misses != ss.Misses ||
		bs.FlowInvalid != ss.FlowInvalid || bs.FlowBytes != ss.FlowBytes ||
		bs.CorrelatedBytes != ss.CorrelatedBytes || bs.ChainHist != ss.ChainHist {
		t.Fatalf("stats diverge:\nbatch  %+v\nsingle %+v", bs, ss)
	}
}

// TestDrainFullLanesDeliversEverything is the drain-ordering regression
// test: cancelling the run while every lane queue is full must still
// deliver every accepted flow to the sink exactly once — the lanes close
// their rings and write what they hold before the sink is flushed and
// closed.
func TestDrainFullLanesDeliversEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 4
	cfg.LookQueueCap = 64 // 16 per lane
	c := New(cfg)
	for i := 0; i < 200; i++ {
		c.IngestDNS(aRec(t0, fmt.Sprintf("svc%d.example", i),
			netip.AddrFrom4([4]byte{198, 51, 100, byte(i%200 + 1)}).String(), 300))
	}

	// Fill the lanes to the brim before any worker exists.
	offered, accepted := 0, 0
	for i := 0; i < 1000; i++ {
		fr := laneFlow(t0.Add(time.Second),
			netip.AddrFrom4([4]byte{198, 51, 100, byte(i%200 + 1)}).String(),
			netip.AddrFrom4([4]byte{203, 0, byte(i / 250), byte(i%250 + 1)}).String(), 1)
		offered++
		if offerFlow(c, fr) {
			accepted++
		}
	}
	if accepted != cfg.LookQueueCap {
		t.Logf("accepted %d of %d offered (lane caps %d total)", accepted, offered, cfg.LookQueueCap)
	}
	if accepted == 0 {
		t.Fatal("nothing accepted")
	}

	sink := NewCountingSink()
	// Run under an already-cancelled context: pure drain.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := func() error {
		c2 := c // correlator already constructed; attach sink via option path
		c2.sink = sink
		return c2.Run(ctx)
	}(); err != nil {
		t.Fatalf("Run = %v", err)
	}

	st := c.Stats()
	if st.Written != uint64(accepted) {
		t.Fatalf("written %d != accepted %d (drain dropped records)", st.Written, accepted)
	}
	total := uint64(0)
	for _, n := range sink.Flows() {
		total += n
	}
	if total != uint64(accepted) {
		t.Fatalf("sink saw %d flows, accepted %d (duplicate or dropped delivery)", total, accepted)
	}
	if fill, look := c.QueueDepths(); fill+look != 0 {
		t.Fatalf("rings hold %d DNS records and %d flows after the drain", fill, look)
	}
}

// TestLanesDestinationLookup exercises the aligned mode: lookups keyed by
// destination hit the splits the flow's own lane owns.
func TestLanesDestinationLookup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 8
	cfg.Key = LookupDestination
	c := New(cfg)
	for i := 0; i < 64; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		c.IngestDNS(aRec(t0, fmt.Sprintf("dst%d.example", i), dst.String(), 300))
	}
	for i := 0; i < 64; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		cf := c.CorrelateFlow(laneFlow(t0.Add(time.Second), "198.51.100.1", dst.String(), 10))
		if cf.Name != fmt.Sprintf("dst%d.example", i) {
			t.Fatalf("dst lookup %d = %+v", i, cf)
		}
	}
}

// TestIngestDNSUnparsableAnswer pins the §3.2 filter extension: an A
// record whose answer is not an IP address is rejected as invalid rather
// than stored under a key no flow can ever produce.
func TestIngestDNSUnparsableAnswer(t *testing.T) {
	c := New(DefaultConfig())
	c.IngestDNS(aRec(t0, "weird.example", "not-an-ip", 300))
	st := c.Stats()
	if st.DNSInvalid != 1 || st.DNSRecords != 0 {
		t.Fatalf("invalid=%d records=%d, want 1/0", st.DNSInvalid, st.DNSRecords)
	}
	if n, _ := c.StoreSizes(); n != 0 {
		t.Fatalf("ipName entries = %d, want 0", n)
	}
}
