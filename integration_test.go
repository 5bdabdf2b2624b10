// Cross-module integration tests: generator → wire codecs → loopback
// sockets → stream sources → correlator → sink, plus variant behaviour
// assertions that span packages.
package repro

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
	"repro/internal/workload"
)

// TestLoopbackPipeline drives the full deployment wiring over real sockets
// through the v2 API: DNS responses framed over TCP into a listener
// source, NetFlow v9 over UDP, one correlator run under a cancellable
// context.
func TestLoopbackPipeline(t *testing.T) {
	dnsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	sink := core.NewCountingSink()
	// The full sharded topology: DNS TCP stream and NetFlow stream → 8
	// lanes (each one batched FillUp+LookUp worker) → sink.
	cfg := core.DefaultConfig()
	cfg.Lanes = 8
	c := core.New(cfg,
		core.WithSink(sink),
		core.WithSources(stream.NewDNSListener(dnsLn), stream.NewFlowUDPSource(nfConn)),
	)
	if c.Lanes() != 8 {
		t.Fatalf("lanes = %d", c.Lanes())
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	// Emit a deterministic session set: every service announced, then a
	// known flow per service.
	base := time.Now()
	dnsConn, err := net.Dial("tcp", dnsLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	dnsSink := stream.NewDNSTCPSink(dnsConn)
	const services = 50
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("svc%02d.example", i)
		edge := fmt.Sprintf("edge%02d.cdn.example", i)
		addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		err := dnsSink.Send(&dnswire.Message{
			Header:    dnswire.Header{ID: uint16(i), Response: true},
			Questions: []dnswire.Question{{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
			Answers: []dnswire.Record{
				{Name: name, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300, Target: edge},
				{Name: edge, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: addr},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dnsConn.Close()

	// Wait for fills to land.
	deadline := time.After(5 * time.Second)
	for {
		if st := c.Stats(); st.DNSRecords == 2*services {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("fills stuck: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	udp, err := net.Dial("udp", nfConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	nfSink := stream.NewFlowUDPSink(udp, 9, 10)
	for i := 0; i < services; i++ {
		err := nfSink.Send(netflow.FlowRecord{
			Timestamp: base.Add(time.Second),
			SrcIP:     netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}),
			DstIP:     netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
			SrcPort:   443, DstPort: 50000, Proto: netflow.ProtoTCP,
			Packets: 10, Bytes: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := nfSink.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline = time.After(5 * time.Second)
	for {
		if st := c.Stats(); st.Flows == services {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("flows stuck: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	udp.Close()
	cancel() // graceful drain: sources close, queues drain into the sink
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}

	st := c.Stats()
	if st.CorrelationRate() != 1.0 {
		t.Fatalf("correlation rate = %v, want 1.0 (every flow announced)", st.CorrelationRate())
	}
	if st.LossRate() != 0 {
		t.Fatalf("loss = %v", st.LossRate())
	}
	counts := sink.Bytes()
	for i := 0; i < services; i++ {
		name := fmt.Sprintf("svc%02d.example", i)
		if counts[name] != 1000 {
			t.Fatalf("bytes[%s] = %d", name, counts[name])
		}
	}
}

// TestShardedLanesEndToEnd drives the sharded correlator end to end with
// the synthetic workload generator: DNS announcements through the ingest
// façade, flows over a real UDP socket in NetFlow v9, eight correlation
// lanes, and a counting sink. It asserts the correlated fraction and — the
// lane-sharding invariant — exactly-once delivery: every flow that entered
// the pipeline reaches the sink exactly once, no duplicates from lane
// fan-out and no drops between lanes and the write stage.
func TestShardedLanesEndToEnd(t *testing.T) {
	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Lanes = 8
	sink := core.NewCountingSink()
	c := core.New(cfg,
		core.WithSink(sink),
		core.WithSources(stream.NewFlowUDPSource(nfConn)),
	)
	if c.Lanes() != 8 {
		t.Fatalf("lanes = %d", c.Lanes())
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	// Announce the service universe, then stream its flows over UDP.
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 42)
	base := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	dns := g.DNSBatch(base, 1200)
	if got := c.OfferDNSBatch(dns); got != len(dns) {
		t.Fatalf("DNS batch: offered %d, accepted %d", len(dns), got)
	}
	deadline := time.After(10 * time.Second)
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

	udp, err := net.Dial("udp", nfConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	nfSink := stream.NewFlowUDPSink(udp, 7, 10)
	const flows = 2000
	sent := 0
	for _, fr := range g.FlowBatch(base.Add(time.Second), flows) {
		if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
			continue // v9 standard template here is IPv4
		}
		if err := nfSink.Send(fr); err != nil {
			t.Fatal(err)
		}
		sent++
		if sent%200 == 0 {
			if err := nfSink.Flush(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond) // let the reader keep pace with loopback bursts
		}
	}
	if err := nfSink.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(10 * time.Second)
	for {
		if st := c.Stats(); st.Flows == uint64(sent) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("flows stuck at %d of %d: %+v", c.Stats().Flows, sent, c.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	udp.Close()
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}

	st := c.Stats()
	// Exactly-once: everything the lanes accepted reached the sink, once.
	if st.LookQueue.Dropped != 0 || st.WriteQueue.Dropped != 0 {
		t.Fatalf("internal drops: look=%d write=%d", st.LookQueue.Dropped, st.WriteQueue.Dropped)
	}
	if st.Written != st.Flows {
		t.Fatalf("written %d != processed flows %d", st.Written, st.Flows)
	}
	total := uint64(0)
	for _, n := range sink.Flows() {
		total += n
	}
	if total != st.Flows {
		t.Fatalf("sink saw %d flows, pipeline processed %d", total, st.Flows)
	}
	// Correlated fraction: the generator announces most flow sources via
	// DNS first, so well over half the flows must resolve.
	if rate := st.CorrelationRateFlows(); rate < 0.5 {
		t.Fatalf("correlated fraction = %.3f, want >= 0.5 (stats %+v)", rate, st)
	}
	if st.Lanes != 8 {
		t.Fatalf("stats lanes = %d", st.Lanes)
	}
}

// TestVariantBehaviourCrossModule replays one synthetic day through every
// variant and asserts the paper's cross-variant ordering end to end.
func TestVariantBehaviourCrossModule(t *testing.T) {
	u := workload.NewUniverse(workload.DefaultConfig())
	run := func(v core.Variant) core.Stats {
		c := core.New(core.ConfigForVariant(v))
		g := workload.NewGenerator(u, 99)
		base := time.Date(2022, 5, 25, 0, 0, 0, 0, time.UTC)
		for h := 0; h < 24; h++ {
			ts := base.Add(time.Duration(h) * time.Hour)
			for _, rec := range g.DNSBatch(ts, 300) {
				c.IngestDNS(rec)
			}
			for _, fr := range g.FlowBatch(ts, 3000) {
				c.CorrelateFlow(fr)
			}
		}
		return c.Stats()
	}
	main := run(core.VariantMain)
	noRot := run(core.VariantNoRotation)
	noClear := run(core.VariantNoClearUp)

	if noRot.CorrelationRate() >= main.CorrelationRate() {
		t.Fatalf("NoRotation corr %.3f !< Main %.3f",
			noRot.CorrelationRate(), main.CorrelationRate())
	}
	if noClear.CorrelationRate() < main.CorrelationRate()-0.01 {
		t.Fatalf("NoClearUp corr %.3f below Main %.3f",
			noClear.CorrelationRate(), main.CorrelationRate())
	}
	if noClear.IPNameEntries <= main.IPNameEntries {
		t.Fatalf("NoClearUp state %d !> Main %d", noClear.IPNameEntries, main.IPNameEntries)
	}
	if main.IPNameRotations == 0 || noClear.IPNameRotations != 0 {
		t.Fatalf("rotation counters wrong: main=%d noClear=%d",
			main.IPNameRotations, noClear.IPNameRotations)
	}
}

// TestWireFidelity round-trips generator output through both wire codecs
// and checks nothing is lost or altered on the way to the correlator.
func TestWireFidelity(t *testing.T) {
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 5)
	ts := time.Unix(1653475200, 0)

	// DNS path: flatten -> message -> wire -> decode -> flatten.
	recs := g.DNSBatch(ts, 50)
	reassembled := 0
	for _, rec := range recs {
		msg := &dnswire.Message{Header: dnswire.Header{Response: true}}
		r := dnswire.Record{Name: rec.Query, Type: rec.RType, Class: dnswire.ClassIN, TTL: rec.TTL}
		if rec.RType == dnswire.TypeCNAME {
			r.Target = rec.Answer
		} else {
			if !rec.Addr.IsValid() {
				t.Fatalf("generator emitted A/AAAA record without typed address: %+v", rec)
			}
			r.Addr = rec.Addr
		}
		msg.Answers = []dnswire.Record{r}
		wire, err := dnswire.Encode(msg)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		got, err := dnswire.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		flat := stream.FlattenResponseInto(nil, got, ts)
		if len(flat) != 1 {
			t.Fatalf("flatten = %d records", len(flat))
		}
		if flat[0].Query != rec.Query || flat[0].Answer != rec.Answer || flat[0].TTL != rec.TTL {
			t.Fatalf("wire round trip altered record: %+v -> %+v", rec, flat[0])
		}
		reassembled++
	}
	if reassembled == 0 {
		t.Fatal("no records exercised")
	}

	// NetFlow path: v9 template encode/decode for IPv4 flows.
	flows := g.FlowBatch(ts, 200)
	cache := netflow.NewTemplateCache()
	for _, fr := range flows {
		if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
			continue
		}
		pkt, err := netflow.EncodeV9(netflow.V9Header{SourceID: 1}, netflow.StandardTemplate(),
			[]netflow.FlowRecord{fr})
		if err != nil {
			t.Fatal(err)
		}
		got, err := netflow.DecodeV9(pkt, cache)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != 1 {
			t.Fatalf("records = %d", len(got.Records))
		}
		g := got.Records[0]
		if g.SrcIP != fr.SrcIP || g.Bytes != fr.Bytes || g.DstPort != fr.DstPort {
			t.Fatalf("v9 round trip altered flow: %+v -> %+v", fr, g)
		}
	}
}
