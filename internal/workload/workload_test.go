package workload

import (
	"context"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnsname"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
)

var simStart = time.Unix(1653475200, 0)

func smallUniverse(t *testing.T) *Universe {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumServices = 500
	cfg.SuspiciousServices = 20
	cfg.MalformedServices = 20
	return NewUniverse(cfg)
}

func TestUniverseDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumServices = 200
	a, b := NewUniverse(cfg), NewUniverse(cfg)
	if len(a.Services) != len(b.Services) {
		t.Fatal("size mismatch")
	}
	for i := range a.Services {
		if a.Services[i].Name != b.Services[i].Name ||
			len(a.Services[i].ISPAddrs) != len(b.Services[i].ISPAddrs) {
			t.Fatalf("service %d differs", i)
		}
		for j := range a.Services[i].ISPAddrs {
			if a.Services[i].ISPAddrs[j] != b.Services[i].ISPAddrs[j] {
				t.Fatalf("service %d addr %d differs", i, j)
			}
		}
	}
}

func TestUniversePopulation(t *testing.T) {
	u := smallUniverse(t)
	if len(u.Services) != 500 {
		t.Fatalf("services = %d", len(u.Services))
	}
	suspicious, malformed, cdnHosted, dualStack := 0, 0, 0, 0
	for _, s := range u.Services {
		if s.Category != 0 {
			suspicious++
		}
		if s.Malformed {
			malformed++
			if dnsname.Valid(s.Name) {
				t.Errorf("malformed service has valid name %q", s.Name)
			}
		}
		if s.CDN >= 0 {
			cdnHosted++
			if len(s.Chain) == 0 {
				t.Errorf("CDN service %q has no chain", s.Name)
			}
		}
		if len(s.ISPAddrs) == 0 || len(s.PubAddrs) == 0 {
			t.Fatalf("service %q missing addresses", s.Name)
		}
		for _, a := range s.ISPAddrs {
			if a.Is6() {
				dualStack++
				break
			}
		}
		// ISP and public pools must be disjoint: that disjointness is the
		// coverage gap.
		pub := map[string]bool{}
		for _, a := range s.PubAddrs {
			pub[a.String()] = true
		}
		for _, a := range s.ISPAddrs {
			if pub[a.String()] {
				t.Fatalf("service %q shares ISP/public addr %v", s.Name, a)
			}
		}
	}
	if suspicious != 20 || malformed != 20 {
		t.Fatalf("suspicious=%d malformed=%d", suspicious, malformed)
	}
	if frac := float64(cdnHosted) / 500; frac < 0.75 || frac > 0.95 {
		t.Fatalf("CDN share = %v", frac)
	}
	if dualStack == 0 {
		t.Fatal("no dual-stack services")
	}
	// Blocklist covers exactly the suspicious services.
	if u.Blocklist.Len() != 20 {
		t.Fatalf("blocklist = %d", u.Blocklist.Len())
	}
}

func TestBGPTableCoversEdges(t *testing.T) {
	u := smallUniverse(t)
	tbl, err := u.BGPTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range u.Services[:100] {
		for _, a := range append(append([]netip.Addr{}, s.ISPAddrs...), s.PubAddrs...) {
			asn, ok := tbl.Lookup(a)
			if !ok {
				t.Fatalf("edge %v unrouted", a)
			}
			if s.CDN >= 0 {
				if a.Is4() && asn != u.CDNASNs[s.CDN] {
					t.Fatalf("edge %v -> AS%d, want AS%d", a, asn, u.CDNASNs[s.CDN])
				}
			} else if asn != u.DirectASN {
				t.Fatalf("direct edge %v -> AS%d", a, asn)
			}
		}
	}
}

func TestChainLengthDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 100000
	within6, total := 0, 0
	maxLen := 0
	for i := 0; i < n; i++ {
		l := sampleChainLen(r)
		if l < 1 {
			t.Fatal("chain length < 1")
		}
		if l <= 6 {
			within6++
		}
		if l > maxLen {
			maxLen = l
		}
		total++
	}
	frac := float64(within6) / float64(total)
	if frac < 0.985 {
		t.Fatalf("P(len<=6) = %v, want >= 0.985 (Fig 6)", frac)
	}
	if maxLen < 7 {
		t.Fatal("no tail beyond 6 sampled")
	}
	if maxLen > 17 {
		t.Fatalf("maxLen = %d beyond Fig 6 support", maxLen)
	}
}

func TestTTLDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const n = 200000
	a := aTTLDist()
	le300, lt3600 := 0, 0
	for i := 0; i < n; i++ {
		ttl := a.sample(r)
		if ttl <= 300 {
			le300++
		}
		if ttl < 3600 {
			lt3600++
		}
	}
	if f := float64(le300) / n; f < 0.64 || f > 0.76 {
		t.Fatalf("P(A ttl<=300) = %v, want ~0.70 (Fig 8)", f)
	}
	if f := float64(lt3600) / n; f < 0.98 {
		t.Fatalf("P(A ttl<3600) = %v, want ~0.99 (Fig 8)", f)
	}
	c := cnameTTLDist()
	lt7200 := 0
	for i := 0; i < n; i++ {
		if c.sample(r) < 7200 {
			lt7200++
		}
	}
	if f := float64(lt7200) / n; f < 0.98 {
		t.Fatalf("P(CNAME ttl<7200) = %v, want ~0.99 (Fig 8)", f)
	}
}

func TestDiurnalMultiplier(t *testing.T) {
	peak := DiurnalMultiplier(21)
	trough := DiurnalMultiplier(4)
	if peak != 1.0 {
		t.Fatalf("peak = %v", peak)
	}
	if trough >= 0.6 {
		t.Fatalf("trough = %v", trough)
	}
	// Continuous-ish and periodic.
	if DiurnalMultiplier(0) != DiurnalMultiplier(24) {
		t.Fatal("not periodic")
	}
	if DiurnalMultiplier(-4) != DiurnalMultiplier(20) {
		t.Fatal("negative wrap broken")
	}
	for h := 0.0; h < 24; h += 0.25 {
		m := DiurnalMultiplier(h)
		if m <= 0 || m > 1 {
			t.Fatalf("mult(%v) = %v out of range", h, m)
		}
	}
}

func TestDNSQueryEventShape(t *testing.T) {
	u := smallUniverse(t)
	g := NewGenerator(u, 99)
	sawCNAME, sawA := false, false
	for i := 0; i < 200; i++ {
		recs := g.DNSQueryEvent(simStart)
		if len(recs) == 0 {
			t.Fatal("empty query event")
		}
		for _, rec := range recs {
			if !rec.IsValid() {
				t.Fatalf("invalid record %+v", rec)
			}
			if rec.Timestamp != simStart {
				t.Fatal("timestamp not applied")
			}
			switch rec.RType {
			case dnswire.TypeCNAME:
				sawCNAME = true
			case dnswire.TypeA, dnswire.TypeAAAA:
				sawA = true
			}
		}
		// Chain must be connected: each CNAME's answer is the next record's
		// query.
		for j := 0; j+1 < len(recs); j++ {
			if recs[j].RType == dnswire.TypeCNAME && recs[j+1].RType == dnswire.TypeCNAME {
				if recs[j].Answer != recs[j+1].Query {
					t.Fatalf("broken chain: %q -> %q", recs[j].Answer, recs[j+1].Query)
				}
			}
		}
	}
	if !sawCNAME || !sawA {
		t.Fatal("missing record types in query events")
	}
}

func TestFlowBatchComposition(t *testing.T) {
	u := smallUniverse(t)
	g := NewGenerator(u, 7)
	const n = 20000
	flows := g.FlowBatch(simStart, n)
	if len(flows) < n {
		t.Fatalf("flows = %d < %d", len(flows), n)
	}
	dnsPort, nonDNS, service := 0, 0, 0
	for _, f := range flows {
		if !f.IsValid() {
			t.Fatalf("invalid flow %+v", f)
		}
		switch {
		case f.DstPort == netflow.PortDNS || f.DstPort == netflow.PortDoT:
			dnsPort++
		case f.SrcIP.Is4() && f.SrcIP.As4()[0] == 172:
			nonDNS++
		default:
			service++
		}
	}
	if f := float64(dnsPort) / float64(n); f < 0.01 || f > 0.04 {
		t.Fatalf("dns-port fraction = %v", f)
	}
	if f := float64(nonDNS) / float64(n); f < 0.16 || f > 0.25 {
		t.Fatalf("non-DNS fraction = %v", f)
	}
	if service == 0 {
		t.Fatal("no service flows")
	}
}

func TestRankServiceAndPinning(t *testing.T) {
	u := smallUniverse(t)
	g := NewGenerator(u, 7)
	svc, idx := g.RankService(0)
	if u.Services[idx] != svc {
		t.Fatal("RankService index mismatch")
	}
	u.PinServiceToCDNs(idx, []int{0, 3}, 2)
	if len(svc.ISPAddrs) != 4 {
		t.Fatalf("pinned addrs = %d", len(svc.ISPAddrs))
	}
	tbl, err := u.BGPTable()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, a := range svc.ISPAddrs {
		asn, ok := tbl.Lookup(a)
		if !ok {
			t.Fatalf("pinned addr %v unrouted", a)
		}
		seen[asn] = true
	}
	if !seen[u.CDNASNs[0]] || !seen[u.CDNASNs[3]] {
		t.Fatalf("pinned ASes = %v", seen)
	}
}

func TestNamesPerIPShape(t *testing.T) {
	// Fig 9: within a 300 s sample, ~88 % of IPs map to a single name.
	u := NewUniverse(DefaultConfig())
	g := NewGenerator(u, 11)
	names := map[string]map[string]bool{}
	for i := 0; i < 30000; i++ {
		for _, rec := range g.DNSQueryEvent(simStart) {
			if rec.RType == dnswire.TypeCNAME {
				continue
			}
			ip := rec.AnswerString()
			if names[ip] == nil {
				names[ip] = map[string]bool{}
			}
			names[ip][rec.Query] = true
		}
	}
	single, total := 0, 0
	for _, qs := range names {
		total++
		if len(qs) == 1 {
			single++
		}
	}
	frac := float64(single) / float64(total)
	if frac < 0.80 || frac > 0.97 {
		t.Fatalf("single-name IP fraction = %v, want ~0.88 (Fig 9)", frac)
	}
}

func TestHourlyRates(t *testing.T) {
	peakTime := time.Date(2022, 5, 25, 21, 0, 0, 0, time.UTC)
	troughTime := time.Date(2022, 5, 25, 4, 0, 0, 0, time.UTC)
	dPeak, fPeak := HourlyRates(peakTime, 100, 1000)
	dTrough, fTrough := HourlyRates(troughTime, 100, 1000)
	if dPeak <= dTrough || fPeak <= fTrough {
		t.Fatalf("rates peak %d/%d vs trough %d/%d", dPeak, fPeak, dTrough, fTrough)
	}
	if dPeak != 100 || fPeak != 1000 {
		t.Fatalf("peak rates = %d/%d", dPeak, fPeak)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	u := smallUniverse(t)
	g1, g2 := NewGenerator(u, 5), NewGenerator(u, 5)
	f1 := g1.FlowBatch(simStart, 100)
	f2 := g2.FlowBatch(simStart, 100)
	if len(f1) != len(f2) {
		t.Fatal("length mismatch")
	}
	for i := range f1 {
		if f1[i].SrcIP != f2[i].SrcIP || f1[i].Bytes != f2[i].Bytes {
			t.Fatalf("flow %d differs", i)
		}
	}
}

// Client DNS-port flows pick their destination out of resolvers.Set.Addrs();
// with that in map order two generators on one seed disagreed. The fraction
// is raised so every batch carries many such flows.
func TestGeneratorDeterministicWithDNSPortTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumServices = 500
	cfg.DNSPortTrafficFraction = 0.5
	cfg.PublicResolverFraction = 0.5
	u := NewUniverse(cfg)
	g1, g2 := NewGenerator(u, 5), NewGenerator(u, 5)
	f1 := g1.FlowBatch(simStart, 2000)
	f2 := g2.FlowBatch(simStart, 2000)
	if len(f1) != len(f2) {
		t.Fatalf("length mismatch: %d vs %d", len(f1), len(f2))
	}
	dnsPort := 0
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("flow %d differs:\n%+v\n%+v", i, f1[i], f2[i])
		}
		if f1[i].DstPort == 53 || f1[i].DstPort == 853 {
			dnsPort++
		}
	}
	if dnsPort < 500 {
		t.Fatalf("only %d DNS-port flows in the batch; the test no longer exercises them", dnsPort)
	}
}

func BenchmarkDNSQueryEvent(b *testing.B) {
	u := NewUniverse(DefaultConfig())
	g := NewGenerator(u, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.DNSQueryEvent(simStart)
	}
}

func BenchmarkFlowBatch1000(b *testing.B) {
	u := NewUniverse(DefaultConfig())
	g := NewGenerator(u, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.FlowBatch(simStart, 1000)
	}
}

func TestRotateEdgeIPChurn(t *testing.T) {
	u := smallUniverse(t)
	var svc *Service
	for _, s := range u.Services {
		if s.CDN >= 0 && !s.ISPAddrs[0].Is6() {
			svc = s
			break
		}
	}
	if svc == nil {
		t.Fatal("no CDN service found")
	}
	before := svc.ISPAddrs[0]
	u.RotateEdgeIP(svc, 0)
	after := svc.ISPAddrs[0]
	if before == after {
		t.Fatal("RotateEdgeIP did not change the address")
	}
	// The fresh address must stay inside the CDN's visible prefix so BGP
	// attribution is unaffected.
	tbl, err := u.BGPTable()
	if err != nil {
		t.Fatal(err)
	}
	asnBefore, _ := tbl.Lookup(before)
	asnAfter, ok := tbl.Lookup(after)
	if !ok || asnBefore != asnAfter {
		t.Fatalf("churned address changed AS: %d -> %d", asnBefore, asnAfter)
	}
}

func TestRotateEdgeIPPinnedNoChurn(t *testing.T) {
	u := smallUniverse(t)
	u.PinServiceToCDNs(0, []int{0}, 2)
	svc := u.Services[0]
	before := append([]netip.Addr{}, svc.ISPAddrs...)
	u.RotateEdgeIP(svc, 0)
	for i := range before {
		if svc.ISPAddrs[i] != before[i] {
			t.Fatal("pinned service churned")
		}
	}
}

func TestRotateEdgeIPBadIndexClamped(t *testing.T) {
	u := smallUniverse(t)
	svc := u.Services[100]
	u.RotateEdgeIP(svc, -5)                  // clamps to slot 0
	u.RotateEdgeIP(svc, len(svc.ISPAddrs)+3) // clamps to slot 0
	u.RotateEdgeIP(&Service{}, 0)            // empty service: no-op, no panic
}

func TestSessionForAnnouncesThenFlows(t *testing.T) {
	u := smallUniverse(t)
	g := NewGenerator(u, 3)
	recs, flows := g.SessionFor(5, simStart, 3)
	if len(recs) == 0 || len(flows) != 3 {
		t.Fatalf("session = %d recs, %d flows", len(recs), len(flows))
	}
	// Every flow's source must be one of the service's edges.
	svc := u.Services[5]
	edge := map[netip.Addr]bool{}
	for _, a := range svc.ISPAddrs {
		edge[a] = true
	}
	for _, fr := range flows {
		if !edge[fr.SrcIP] {
			t.Fatalf("session flow source %v not an edge of the service", fr.SrcIP)
		}
		if !fr.Timestamp.After(simStart) {
			t.Fatal("session flows must follow the resolution")
		}
	}
}

func TestBadServicesKeptOutOfPopularityHead(t *testing.T) {
	u := NewUniverse(DefaultConfig())
	g := NewGenerator(u, 9)
	guard := len(u.Services) / 8
	for rank := 0; rank < guard; rank++ {
		svc, _ := g.RankService(rank)
		if svc.Malformed || svc.Category != 0 {
			t.Fatalf("rank %d is a bad service (%q)", rank, svc.Name)
		}
	}
}

// countIngest tallies offered records for generator-source tests.
type countIngest struct {
	dns, flows int
}

func (c *countIngest) OfferDNSBatch(recs []stream.DNSRecord) int {
	c.dns += len(recs)
	return len(recs)
}
func (c *countIngest) OfferFlowBatch(frs []netflow.FlowRecord) int {
	c.flows += len(frs)
	return len(frs)
}

func TestGeneratorSourceEmitsSteps(t *testing.T) {
	u := smallUniverse(t)
	src := &Source{
		Gen:   NewGenerator(u, 3),
		Start: simStart,
		Steps: 10, DNSPerStep: 5, FlowsPerStep: 50,
	}
	var in countIngest
	if err := src.Run(context.Background(), &in); err != nil {
		t.Fatal(err)
	}
	// DNSBatch flattens query events into >=1 records each, so the DNS
	// count is a floor; flows are exact.
	if in.dns < 10*5 || in.flows != 10*50 {
		t.Fatalf("emitted dns=%d flows=%d", in.dns, in.flows)
	}
	// A cancelled context stops the source immediately and cleanly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := in.flows
	if err := src.Run(ctx, &in); err != nil {
		t.Fatal(err)
	}
	if in.flows != before {
		t.Fatal("cancelled source kept emitting")
	}
}
