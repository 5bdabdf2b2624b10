// End-to-end rollup verification: the streaming attribution counters must
// agree exactly with the ground-truth counting sink when both consume the
// same pipeline output. Runs under -race in CI (the rollup sink's sharded
// Observe path is exercised by concurrent Write workers).
package repro

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbl"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestRollupEndToEndMatchesCountingSink drives ≥100k generated flows
// through the deployment wiring — workload generator → NetFlow v9 over a
// real UDP socket → 8 correlation lanes → MultiSink fanning out to the
// counting sink and the attributed rollup sink — and asserts the rollup's
// per-service byte and flow totals equal the counting sink's exactly.
// Counting is the trusted oracle (one map increment per record); any
// rollup bug — a dropped observation, a shard merged twice, a window
// boundary duplicating a flow — breaks exact equality.
func TestRollupEndToEndMatchesCountingSink(t *testing.T) {
	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The totals comparison needs every datagram delivered; give the
	// kernel queue generous headroom over the backpressure window below.
	if uc, ok := nfConn.(*net.UDPConn); ok {
		uc.SetReadBuffer(4 << 20)
	}

	u := workload.NewUniverse(workload.DefaultConfig())
	table, err := u.BGPTable()
	if err != nil {
		t.Fatal(err)
	}
	table.Freeze()

	counting := core.NewCountingSink()
	engine := rollup.New(time.Minute, 8)
	var sealMu sync.Mutex
	var sealed []rollup.Window
	rsink := rollup.NewSink(engine,
		rollup.WithTable(table),
		rollup.WithBlocklist(u.Blocklist),
		rollup.WithOnSeal(func(ws []rollup.Window) {
			sealMu.Lock()
			sealed = append(sealed, ws...)
			sealMu.Unlock()
		}))

	cfg := core.DefaultConfig()
	cfg.Lanes = 8
	c := core.New(cfg,
		core.WithSink(core.MultiSink{counting, rsink}),
		core.WithSources(stream.NewFlowUDPSource(nfConn)),
	)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	// Announce the service universe so most flows correlate.
	g := workload.NewGenerator(u, 1234)
	base := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	dns := g.DNSBatch(base, 4000)
	if got := c.OfferDNSBatch(dns); got != len(dns) {
		t.Fatalf("DNS batch: offered %d, accepted %d", len(dns), got)
	}
	deadline := time.After(30 * time.Second)
	for {
		if st := c.Stats(); st.DNSRecords+st.DNSInvalid == uint64(len(dns)) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("fills stuck: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	// Stream ≥100k flows over the socket. Timestamps advance one second
	// per batch so the run spans several rollup windows. Backpressure
	// keeps the in-flight window small enough that the loopback socket
	// buffer never overflows — the totals comparison needs every sent
	// flow delivered.
	udp, err := net.Dial("udp", nfConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	nfSink := stream.NewFlowUDPSink(udp, 7, 10)
	const wantFlows = 100_000
	const maxLag = 1024
	sent := 0
	waitProcessed := func(target uint64) {
		deadline := time.After(60 * time.Second)
		for c.Stats().Flows < target {
			select {
			case <-deadline:
				t.Fatalf("flows stuck at %d of %d: %+v", c.Stats().Flows, sent, c.Stats())
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	for batch := 0; sent < wantFlows; batch++ {
		ts := base.Add(time.Duration(batch) * time.Second)
		for _, fr := range g.FlowBatch(ts, 2000) {
			if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
				continue // the v9 standard template here is IPv4
			}
			if err := nfSink.Send(fr); err != nil {
				t.Fatal(err)
			}
			sent++
			if sent%256 == 0 {
				if err := nfSink.Flush(); err != nil {
					t.Fatal(err)
				}
				if sent > maxLag {
					waitProcessed(uint64(sent - maxLag))
				}
			}
		}
	}
	if err := nfSink.Flush(); err != nil {
		t.Fatal(err)
	}
	waitProcessed(uint64(sent))
	if sent < wantFlows {
		t.Fatalf("generated only %d flows, want >= %d", sent, wantFlows)
	}

	udp.Close()
	cancel() // graceful drain: both sinks see every accepted flow, then Close
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}

	st := c.Stats()
	if st.LookQueue.Dropped != 0 {
		t.Fatalf("internal drops: look=%d", st.LookQueue.Dropped)
	}
	if st.Written != st.LookQueue.Dequeued-st.Poisoned {
		t.Fatalf("written %d != look dequeued %d - poisoned %d", st.Written, st.LookQueue.Dequeued, st.Poisoned)
	}
	if st.Written != uint64(sent) {
		t.Fatalf("written %d != sent %d", st.Written, sent)
	}

	// The drain ran rsink.Close(), so every window is sealed; merge the
	// OnSeal captures into the run's day view.
	sealMu.Lock()
	defer sealMu.Unlock()
	if len(sealed) == 0 {
		t.Fatal("no rollup windows sealed")
	}
	day := rollup.MergeAll(sealed)

	// Exact equality, per service: bytes and flows from the rollup rows
	// must reproduce the counting sink's maps (including the "" bucket of
	// uncorrelated traffic), and therefore the same grand totals.
	rollBytes := make(map[string]uint64)
	rollFlows := make(map[string]uint64)
	for _, r := range day.Rows {
		rollBytes[r.Service] += r.Bytes
		rollFlows[r.Service] += r.Flows
	}
	if want := counting.Bytes(); !reflect.DeepEqual(rollBytes, want) {
		t.Fatalf("per-service bytes diverge: rollup %d services, counting %d", len(rollBytes), len(want))
	}
	if want := counting.Flows(); !reflect.DeepEqual(rollFlows, want) {
		t.Fatalf("per-service flows diverge: rollup %d services, counting %d", len(rollFlows), len(want))
	}
	total := day.Total()
	if total.Flows != uint64(sent) {
		t.Fatalf("rollup total flows = %d, want %d", total.Flows, sent)
	}

	// Attribution sanity on the same run: correlated traffic resolves to
	// real origin ASes, and the universe's blocklisted services surface
	// with non-benign categories.
	asns := make(map[uint32]bool)
	cats := make(map[dbl.Category]bool)
	for _, r := range day.Rows {
		if r.Service != "" {
			asns[r.ASN] = true
			cats[r.Category] = true
		}
	}
	if len(asns) < 2 {
		t.Fatalf("AS attribution collapsed: %v", asns)
	}
	if len(cats) < 2 {
		t.Fatalf("category attribution collapsed: %v", cats)
	}
}
