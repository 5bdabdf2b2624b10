package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
)

var t0 = time.Unix(1653475200, 0) // 2022-05-25, the paper's measurement week

func aRec(ts time.Time, query, ip string, ttl uint32) stream.DNSRecord {
	return stream.DNSRecord{Timestamp: ts, Query: query, RType: dnswire.TypeA, TTL: ttl, Answer: ip}
}

func cnameRec(ts time.Time, alias, canonical string, ttl uint32) stream.DNSRecord {
	return stream.DNSRecord{Timestamp: ts, Query: alias, RType: dnswire.TypeCNAME, TTL: ttl, Answer: canonical}
}

func flow(ts time.Time, srcIP string, bytes uint64) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: ts,
		SrcIP:     netip.MustParseAddr(srcIP),
		DstIP:     netip.MustParseAddr("203.0.113.200"),
		Packets:   1, Bytes: bytes, Proto: netflow.ProtoTCP,
	}
}

func newSyncCorrelator(cfg Config) *Correlator { return New(cfg) }

func TestDirectALookup(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(aRec(t0, "cdn.example.com", "198.51.100.7", 300))
	cf := c.CorrelateFlow(flow(t0.Add(time.Second), "198.51.100.7", 1000))
	if !cf.Correlated() || cf.Name != "cdn.example.com" {
		t.Fatalf("cf = %+v", cf)
	}
	if cf.Tier != TierActive || cf.ChainLen != 0 {
		t.Fatalf("tier/chain = %v/%d", cf.Tier, cf.ChainLen)
	}
}

func TestCNAMEChainWalk(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	// service.com -> c1 -> c2 -> edge.cdn.net -> IP
	c.IngestDNS(cnameRec(t0, "service.com", "c1.cdn.net", 300))
	c.IngestDNS(cnameRec(t0, "c1.cdn.net", "c2.cdn.net", 300))
	c.IngestDNS(cnameRec(t0, "c2.cdn.net", "edge.cdn.net", 300))
	c.IngestDNS(aRec(t0, "edge.cdn.net", "198.51.100.10", 60))
	cf := c.CorrelateFlow(flow(t0.Add(time.Second), "198.51.100.10", 5000))
	if cf.Name != "service.com" {
		t.Fatalf("resolved %q, want service.com", cf.Name)
	}
	if cf.ChainLen != 3 {
		t.Fatalf("chain len = %d, want 3", cf.ChainLen)
	}
}

func TestCNAMEChainLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CNAMEChainLimit = 6
	c := newSyncCorrelator(cfg)
	// Build a 10-hop chain; the walk must stop at 6 (paper §6).
	for i := 0; i < 10; i++ {
		c.IngestDNS(cnameRec(t0, fmt.Sprintf("n%d.example", i+1), fmt.Sprintf("n%d.example", i), 300))
	}
	c.IngestDNS(aRec(t0, "n0.example", "198.51.100.11", 60))
	cf := c.CorrelateFlow(flow(t0.Add(time.Second), "198.51.100.11", 100))
	if cf.ChainLen != 6 {
		t.Fatalf("chain len = %d, want 6 (limit)", cf.ChainLen)
	}
	if cf.Name != "n6.example" {
		t.Fatalf("name = %q, want n6.example", cf.Name)
	}
}

func TestCNAMESelfLoopTerminates(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(cnameRec(t0, "loop.example", "loop.example", 300))
	c.IngestDNS(aRec(t0, "loop.example", "198.51.100.12", 60))
	cf := c.CorrelateFlow(flow(t0.Add(time.Second), "198.51.100.12", 100))
	if cf.Name != "loop.example" || cf.ChainLen != 0 {
		t.Fatalf("cf = %+v", cf)
	}
}

func TestCNAMETwoNodeLoopTerminates(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(cnameRec(t0, "a.example", "b.example", 300))
	c.IngestDNS(cnameRec(t0, "b.example", "a.example", 300))
	c.IngestDNS(aRec(t0, "b.example", "198.51.100.13", 60))
	cf := c.CorrelateFlow(flow(t0.Add(time.Second), "198.51.100.13", 100))
	// Walk bounces a<->b until the limit; it must terminate.
	if cf.ChainLen != DefaultCNAMEChainLimit {
		t.Fatalf("chain len = %d", cf.ChainLen)
	}
}

func TestMemoization(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(cnameRec(t0, "service.com", "c1.cdn.net", 300))
	c.IngestDNS(cnameRec(t0, "c1.cdn.net", "edge.cdn.net", 300))
	c.IngestDNS(aRec(t0, "edge.cdn.net", "198.51.100.14", 60))
	cf1 := c.CorrelateFlow(flow(t0.Add(time.Second), "198.51.100.14", 100))
	if cf1.ChainLen != 2 || cf1.Name != "service.com" {
		t.Fatalf("first = %+v", cf1)
	}
	if c.Stats().Memoized != 1 {
		t.Fatalf("memoized = %d", c.Stats().Memoized)
	}
	// The second lookup takes the memoized shortcut: one hop.
	cf2 := c.CorrelateFlow(flow(t0.Add(2*time.Second), "198.51.100.14", 100))
	if cf2.Name != "service.com" || cf2.ChainLen != 1 {
		t.Fatalf("second = %+v", cf2)
	}
}

func TestMissReturnsNull(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	cf := c.CorrelateFlow(flow(t0, "198.51.100.99", 100))
	if cf.Correlated() || cf.Tier != TierNone {
		t.Fatalf("cf = %+v", cf)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Correlated != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidRecordsFiltered(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(stream.DNSRecord{}) // invalid
	c.IngestDNS(stream.DNSRecord{Timestamp: t0, Query: "q", RType: dnswire.TypeTXT, Answer: "x"})
	if st := c.Stats(); st.DNSInvalid != 2 || st.DNSRecords != 0 {
		t.Fatalf("stats = %+v", st)
	}
	cf := c.CorrelateFlow(netflow.FlowRecord{})
	if cf.Correlated() {
		t.Fatal("invalid flow correlated")
	}
	if st := c.Stats(); st.FlowInvalid != 1 {
		t.Fatalf("FlowInvalid = %d", st.FlowInvalid)
	}
}

func TestQueryNameNormalized(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(aRec(t0, "CDN.Example.COM.", "198.51.100.7", 60))
	cf := c.CorrelateFlow(flow(t0.Add(time.Second), "198.51.100.7", 10))
	if cf.Name != "cdn.example.com" {
		t.Fatalf("name = %q", cf.Name)
	}
}

func TestClearUpExpiresActive(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(aRec(t0, "old.example", "198.51.100.20", 60))
	// Advance the record clock past 2 clear-up intervals: the first rotation
	// moves the record to inactive, the second discards it.
	c.IngestDNS(aRec(t0.Add(3601*time.Second), "mid.example", "198.51.100.21", 60))
	cf := c.CorrelateFlow(flow(t0.Add(3601*time.Second), "198.51.100.20", 10))
	if cf.Tier != TierInactive || cf.Name != "old.example" {
		t.Fatalf("after 1 rotation: %+v", cf)
	}
	c.IngestDNS(aRec(t0.Add(2*3601*time.Second), "new.example", "198.51.100.22", 60))
	cf = c.CorrelateFlow(flow(t0.Add(2*3601*time.Second), "198.51.100.20", 10))
	if cf.Correlated() {
		t.Fatalf("record survived 2 rotations: %+v", cf)
	}
	if st := c.Stats(); st.IPNameRotations != 2 {
		t.Fatalf("rotations = %d", st.IPNameRotations)
	}
}

func TestNoRotationLosesInactive(t *testing.T) {
	c := newSyncCorrelator(ConfigForVariant(VariantNoRotation))
	c.IngestDNS(aRec(t0, "old.example", "198.51.100.20", 60))
	c.IngestDNS(aRec(t0.Add(3601*time.Second), "mid.example", "198.51.100.21", 60))
	// Without rotation the clear-up wipes the record outright.
	cf := c.CorrelateFlow(flow(t0.Add(3601*time.Second), "198.51.100.20", 10))
	if cf.Correlated() {
		t.Fatalf("NoRotation kept the record: %+v", cf)
	}
}

func TestNoClearUpKeepsForever(t *testing.T) {
	c := newSyncCorrelator(ConfigForVariant(VariantNoClearUp))
	c.IngestDNS(aRec(t0, "old.example", "198.51.100.20", 60))
	// Days later the record is still there.
	later := t0.Add(100 * time.Hour)
	c.IngestDNS(aRec(later, "new.example", "198.51.100.21", 60))
	cf := c.CorrelateFlow(flow(later, "198.51.100.20", 10))
	if !cf.Correlated() || cf.Tier != TierActive {
		t.Fatalf("NoClearUp lost the record: %+v", cf)
	}
	if st := c.Stats(); st.IPNameRotations != 0 {
		t.Fatalf("rotations = %d, want 0", st.IPNameRotations)
	}
}

func TestLongHashmapSurvivesClearUp(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	// TTL 86400 >= AClearUpInterval: goes to the long map.
	c.IngestDNS(aRec(t0, "stable.example", "198.51.100.30", 86400))
	c.IngestDNS(aRec(t0.Add(3601*time.Second), "x.example", "198.51.100.31", 60))
	c.IngestDNS(aRec(t0.Add(2*3601*time.Second), "y.example", "198.51.100.32", 60))
	cf := c.CorrelateFlow(flow(t0.Add(2*3601*time.Second), "198.51.100.30", 10))
	if !cf.Correlated() || cf.Tier != TierLong {
		t.Fatalf("long record lost: %+v", cf)
	}
}

func TestNoLongPutsEverythingInActive(t *testing.T) {
	c := newSyncCorrelator(ConfigForVariant(VariantNoLong))
	c.IngestDNS(aRec(t0, "stable.example", "198.51.100.30", 86400))
	cf := c.CorrelateFlow(flow(t0, "198.51.100.30", 10))
	if cf.Tier != TierActive {
		t.Fatalf("tier = %v, want active", cf.Tier)
	}
	// After two clear-ups the long-TTL record is gone — the correlation
	// loss the paper measures for NoLong.
	c.IngestDNS(aRec(t0.Add(3601*time.Second), "x.example", "198.51.100.31", 60))
	c.IngestDNS(aRec(t0.Add(2*3601*time.Second), "y.example", "198.51.100.32", 60))
	cf = c.CorrelateFlow(flow(t0.Add(2*3601*time.Second), "198.51.100.30", 10))
	if cf.Correlated() {
		t.Fatalf("NoLong kept long-TTL record: %+v", cf)
	}
}

func TestNoSplitUsesOneSplit(t *testing.T) {
	c := newSyncCorrelator(ConfigForVariant(VariantNoSplit))
	if c.Config().NumSplit != 1 {
		t.Fatalf("NumSplit = %d", c.Config().NumSplit)
	}
	c.IngestDNS(aRec(t0, "a.example", "198.51.100.40", 60))
	if cf := c.CorrelateFlow(flow(t0, "198.51.100.40", 10)); !cf.Correlated() {
		t.Fatal("NoSplit lookup broken")
	}
}

func TestExactTTLExpiry(t *testing.T) {
	cfg := ConfigForVariant(VariantExactTTL)
	c := newSyncCorrelator(cfg)
	c.IngestDNS(aRec(t0, "short.example", "198.51.100.50", 30))
	// Within TTL: hit.
	if cf := c.CorrelateFlow(flow(t0.Add(10*time.Second), "198.51.100.50", 10)); !cf.Correlated() {
		t.Fatal("within-TTL lookup missed")
	}
	// After TTL: the A.8 condition rejects it even before any sweep.
	if cf := c.CorrelateFlow(flow(t0.Add(31*time.Second), "198.51.100.50", 10)); cf.Correlated() {
		t.Fatal("expired record matched")
	}
}

func TestExactTTLSweepRemoves(t *testing.T) {
	cfg := ConfigForVariant(VariantExactTTL)
	cfg.ExactTTLSweepInterval = 60 * time.Second
	c := newSyncCorrelator(cfg)
	for i := 0; i < 100; i++ {
		c.IngestDNS(aRec(t0, fmt.Sprintf("d%d.example", i), fmt.Sprintf("198.51.%d.%d", i/256, i%256), 30))
	}
	ip, _ := c.StoreSizes()
	if ip != 100 {
		t.Fatalf("pre-sweep entries = %d", ip)
	}
	// Two minutes later a new record triggers the sweep; all TTL-30 records
	// are expired and removed.
	c.IngestDNS(aRec(t0.Add(2*time.Minute), "fresh.example", "203.0.113.1", 30))
	ip, _ = c.StoreSizes()
	if ip != 1 {
		t.Fatalf("post-sweep entries = %d, want 1", ip)
	}
	if st := c.Stats(); st.Sweeps == 0 || st.SweptEntries != 100 {
		t.Fatalf("sweep stats = %+v", st)
	}
}

func TestMultipleNamesPerIPOverwrite(t *testing.T) {
	// §4 Accuracy: a second domain on the same IP overwrites the first.
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(aRec(t0, "first.example", "198.51.100.60", 300))
	c.IngestDNS(aRec(t0.Add(time.Second), "second.example", "198.51.100.60", 300))
	cf := c.CorrelateFlow(flow(t0.Add(2*time.Second), "198.51.100.60", 10))
	if cf.Name != "second.example" {
		t.Fatalf("name = %q, want second.example (overwrite semantics)", cf.Name)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteWorkers = 2
	sink := NewCountingSink()
	c := New(cfg, WithSink(sink))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	const services = 20
	for i := 0; i < services; i++ {
		ok := c.OfferDNS(aRec(t0, fmt.Sprintf("svc%d.example", i), fmt.Sprintf("198.51.100.%d", i), 300))
		if !ok {
			t.Fatal("DNS offer dropped")
		}
	}
	// Let FillUp finish ingesting before flows arrive (live systems have
	// the same warm-up; the paper's streams run continuously). Queue depth
	// is not enough — a taken batch may still be mid-ingest — so wait on
	// the ingested-records counter.
	for c.Stats().DNSRecords < services {
		time.Sleep(time.Millisecond)
	}
	const flowsPerSvc = 50
	frs := make([]netflow.FlowRecord, 0, flowsPerSvc)
	for i := 0; i < services; i++ {
		frs = frs[:0]
		for j := 0; j < flowsPerSvc; j++ {
			frs = append(frs, flow(t0.Add(time.Second), fmt.Sprintf("198.51.100.%d", i), 100))
		}
		if accepted := c.OfferFlowBatch(frs); accepted != flowsPerSvc {
			t.Fatalf("flow batch: %d/%d accepted", accepted, flowsPerSvc)
		}
	}
	cancel() // graceful drain: every offered record reaches the sink
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}
	st := c.Stats()
	if st.Flows != services*flowsPerSvc {
		t.Fatalf("flows = %d", st.Flows)
	}
	if st.CorrelationRate() != 1.0 {
		t.Fatalf("correlation rate = %v, want 1.0", st.CorrelationRate())
	}
	if st.Written != services*flowsPerSvc {
		t.Fatalf("written = %d", st.Written)
	}
	counts := sink.Bytes()
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("svc%d.example", i)
		if counts[name] != flowsPerSvc*100 {
			t.Fatalf("bytes[%s] = %d", name, counts[name])
		}
	}
	if st.MaxWriteDelayNs <= 0 {
		t.Fatal("write delay not observed")
	}
}

func TestRunSingleUseAndDrains(t *testing.T) {
	c := New(DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	c.OfferDNS(aRec(t0, "a.example", "198.51.100.70", 60))
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}
	if st := c.Stats(); st.DNSRecords != 1 {
		t.Fatalf("DNSRecords = %d", st.DNSRecords)
	}
	// A Correlator's lifecycle is single-use.
	if err := c.Run(context.Background()); err != ErrAlreadyRunning {
		t.Fatalf("second Run = %v, want ErrAlreadyRunning", err)
	}
}

func TestRunEndsWhenSourcesComplete(t *testing.T) {
	// With finite sources attached, Run drains and returns on its own —
	// no cancellation needed.
	sink := NewCountingSink()
	src := stream.SourceFunc(func(ctx context.Context, in stream.Ingest) error {
		in.OfferDNS(aRec(t0, "svc.example", "198.51.100.71", 300))
		// Wait until the record is ingested (not merely dequeued) before
		// the flow that depends on it.
		for correlatorOf(in).Stats().DNSRecords < 1 {
			time.Sleep(time.Millisecond)
		}
		in.OfferFlow(flow(t0.Add(time.Second), "198.51.100.71", 500))
		return nil
	})
	c := New(DefaultConfig(), WithSink(sink), WithSources(src))
	done := make(chan error, 1)
	go func() { done <- c.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after sources completed")
	}
	if got := sink.Bytes()["svc.example"]; got != 500 {
		t.Fatalf("bytes = %d", got)
	}
}

// correlatorOf recovers the concrete correlator behind the ingest façade
// in tests that need queue visibility.
func correlatorOf(in stream.Ingest) *Correlator { return in.(*Correlator) }

func TestRunSourceErrorFailsFast(t *testing.T) {
	boom := errors.New("wire fell over")
	failing := stream.SourceFunc(func(ctx context.Context, in stream.Ingest) error { return boom })
	// A healthy sibling source that only ends on cancellation: Run must
	// not wait for it once the failing source has died.
	forever := stream.SourceFunc(func(ctx context.Context, in stream.Ingest) error {
		<-ctx.Done()
		return nil
	})
	c := New(DefaultConfig(), WithSources(failing, forever))
	done := make(chan error, 1)
	go func() { done <- c.Run(context.Background()) }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("Run = %v, want %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not fail fast on source error")
	}
}

func TestWithMetricsObserves(t *testing.T) {
	var mu sync.Mutex
	var snaps []Stats
	c := New(DefaultConfig(), WithMetrics(time.Millisecond, func(st Stats) {
		mu.Lock()
		snaps = append(snaps, st)
		mu.Unlock()
	}))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	c.OfferDNS(aRec(t0, "a.example", "198.51.100.72", 60))
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-runDone
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no metrics observations")
	}
	if final := snaps[len(snaps)-1]; final.DNSRecords != 1 {
		t.Fatalf("final snapshot = %+v", final)
	}
}

func TestTSVSink(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	sink := NewTSVSink(&buf)
	err := sink.WriteBatch(ctx, []CorrelatedFlow{
		{Flow: flow(t0, "198.51.100.7", 1234), Name: "svc.example", Tier: TierActive, ChainLen: 2},
		{Flow: flow(t0, "198.51.100.8", 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "svc.example") || !strings.Contains(lines[0], "active") {
		t.Fatalf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "NULL") {
		t.Fatalf("line 1 = %q", lines[1])
	}
	// SkipMisses suppresses NULL rows.
	buf.Reset()
	sink2 := NewTSVSink(&buf)
	sink2.SkipMisses = true
	sink2.WriteBatch(ctx, []CorrelatedFlow{{Flow: flow(t0, "198.51.100.8", 10)}})
	sink2.Flush()
	if buf.Len() != 0 {
		t.Fatalf("SkipMisses wrote %q", buf.String())
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewCountingSink(), NewCountingSink()
	ms := MultiSink{a, b}
	ms.WriteBatch(context.Background(), []CorrelatedFlow{{Flow: flow(t0, "198.51.100.7", 5), Name: "x"}})
	if a.Bytes()["x"] != 5 || b.Bytes()["x"] != 5 {
		t.Fatal("MultiSink did not fan out")
	}
	if a.Flows()["x"] != 1 {
		t.Fatal("flow count missing")
	}
}

func TestChainHistogram(t *testing.T) {
	c := newSyncCorrelator(DefaultConfig())
	c.IngestDNS(cnameRec(t0, "svc.example", "edge.cdn", 300))
	c.IngestDNS(aRec(t0, "edge.cdn", "198.51.100.80", 60))
	c.IngestDNS(aRec(t0, "plain.example", "198.51.100.81", 60))
	c.CorrelateFlow(flow(t0, "198.51.100.80", 10)) // 1 hop
	c.CorrelateFlow(flow(t0, "198.51.100.81", 10)) // 0 hops
	st := c.Stats()
	if st.ChainHist[0] != 1 || st.ChainHist[1] != 1 {
		t.Fatalf("hist = %v", st.ChainHist)
	}
}

func TestConfigNormalization(t *testing.T) {
	c := New(Config{})
	cfg := c.Config()
	if cfg.NumSplit != DefaultNumSplit || cfg.AClearUpInterval != DefaultAClearUpInterval ||
		cfg.CNAMEChainLimit != DefaultCNAMEChainLimit || cfg.WriteWorkers <= 0 {
		t.Fatalf("normalized = %+v", cfg)
	}
}

func TestConfigForVariantCoversAll(t *testing.T) {
	if len(AllVariants()) != 5 {
		t.Fatalf("variants = %v", AllVariants())
	}
	if !ConfigForVariant(VariantNoSplit).DisableSplit ||
		!ConfigForVariant(VariantNoClearUp).DisableClearUp ||
		!ConfigForVariant(VariantNoRotation).DisableRotation ||
		!ConfigForVariant(VariantNoLong).DisableLong ||
		!ConfigForVariant(VariantExactTTL).ExactTTL {
		t.Fatal("variant flags wrong")
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{
		TierNone: "none", TierActive: "active", TierInactive: "inactive", TierLong: "long",
	} {
		if tier.String() != want {
			t.Errorf("%d = %q", tier, tier.String())
		}
	}
}

func TestStatsRates(t *testing.T) {
	var st Stats
	if st.CorrelationRate() != 0 || st.LossRate() != 0 || st.CorrelationRateFlows() != 0 {
		t.Fatal("empty stats rates nonzero")
	}
	st.FlowBytes, st.CorrelatedBytes = 1000, 817
	if st.CorrelationRate() != 0.817 {
		t.Fatalf("rate = %v", st.CorrelationRate())
	}
}

func BenchmarkIngestDNS(b *testing.B) {
	c := New(DefaultConfig())
	recs := make([]stream.DNSRecord, 1024)
	for i := range recs {
		recs[i] = aRec(t0, fmt.Sprintf("d%d.example.com", i), fmt.Sprintf("198.51.%d.%d", i/256, i%256), 300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IngestDNS(recs[i&1023])
	}
}

func BenchmarkCorrelateFlowHit(b *testing.B) {
	c := New(DefaultConfig())
	for i := 0; i < 1024; i++ {
		c.IngestDNS(aRec(t0, fmt.Sprintf("d%d.example.com", i), fmt.Sprintf("198.51.%d.%d", i/256, i%256), 300))
	}
	flows := make([]netflow.FlowRecord, 1024)
	for i := range flows {
		flows[i] = flow(t0, fmt.Sprintf("198.51.%d.%d", i/256, i%256), 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CorrelateFlow(flows[i&1023])
	}
}

func BenchmarkCorrelateFlowParallel(b *testing.B) {
	c := New(DefaultConfig())
	for i := 0; i < 1024; i++ {
		c.IngestDNS(aRec(t0, fmt.Sprintf("d%d.example.com", i), fmt.Sprintf("198.51.%d.%d", i/256, i%256), 300))
	}
	flows := make([]netflow.FlowRecord, 1024)
	for i := range flows {
		flows[i] = flow(t0, fmt.Sprintf("198.51.%d.%d", i/256, i%256), 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.CorrelateFlow(flows[i&1023])
			i++
		}
	})
}

func TestLookupKeyModes(t *testing.T) {
	mk := func(k LookupKey) *Correlator {
		cfg := DefaultConfig()
		cfg.Key = k
		c := newSyncCorrelator(cfg)
		c.IngestDNS(aRec(t0, "svc.example", "198.51.100.90", 300))
		return c
	}
	inbound := flow(t0, "198.51.100.90", 100) // announced IP as source
	outbound := netflow.FlowRecord{           // announced IP as destination
		Timestamp: t0,
		SrcIP:     netip.MustParseAddr("10.1.2.3"),
		DstIP:     netip.MustParseAddr("198.51.100.90"),
		Packets:   1, Bytes: 100, Proto: netflow.ProtoTCP,
	}

	src := mk(LookupSource)
	if cf := src.CorrelateFlow(inbound); cf.Name != "svc.example" {
		t.Fatalf("source mode inbound = %+v", cf)
	}
	if cf := src.CorrelateFlow(outbound); cf.Correlated() {
		t.Fatalf("source mode matched destination: %+v", cf)
	}

	dst := mk(LookupDestination)
	if cf := dst.CorrelateFlow(outbound); cf.Name != "svc.example" {
		t.Fatalf("destination mode outbound = %+v", cf)
	}
	if cf := dst.CorrelateFlow(inbound); cf.Correlated() {
		t.Fatalf("destination mode matched source: %+v", cf)
	}

	both := mk(LookupBoth)
	if cf := both.CorrelateFlow(inbound); cf.Name != "svc.example" {
		t.Fatalf("both mode inbound = %+v", cf)
	}
	if cf := both.CorrelateFlow(outbound); cf.Name != "svc.example" {
		t.Fatalf("both mode outbound = %+v", cf)
	}
}

func TestLookupKeyStrings(t *testing.T) {
	if LookupSource.String() != "source" || LookupDestination.String() != "destination" ||
		LookupBoth.String() != "both" {
		t.Fatal("LookupKey strings wrong")
	}
}
