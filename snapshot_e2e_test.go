package repro

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/winstore"
	"repro/internal/workload"
)

// TestKillAndResumePipeline is the warm-restart acceptance test: run a
// pipeline, feed it DNS answers, shut it down (graceful drain writes the
// final checkpoint), then boot a second pipeline from the checkpoint and
// feed it ONLY flows. Every flow correlates — the second process never saw
// a DNS record, so each attribution is knowledge that survived the restart
// through the snapshot. Run under -race in CI.
func TestKillAndResumePipeline(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "store.snapshot")
	const services = 40
	base := time.Now()

	// --- Incarnation 1: DNS only, then die. ---
	{
		dnsLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Lanes = 4
		cfg.SnapshotPath = snapPath
		cfg.SnapshotEvery = 50 * time.Millisecond // exercise the periodic checkpointer too
		c := core.New(cfg, core.WithSources(stream.NewDNSListener(dnsLn)))
		ctx, cancel := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		go func() { runDone <- c.Run(ctx) }()

		dnsConn, err := net.Dial("tcp", dnsLn.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		dnsSink := stream.NewDNSTCPSink(dnsConn)
		for i := 0; i < services; i++ {
			name := fmt.Sprintf("svc%02d.example", i)
			edge := fmt.Sprintf("edge%02d.cdn.example", i)
			addr := netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
			err := dnsSink.Send(&dnswire.Message{
				Header:    dnswire.Header{ID: uint16(i), Response: true},
				Questions: []dnswire.Question{{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
				Answers: []dnswire.Record{
					{Name: name, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300, Target: edge},
					{Name: edge, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 3600, Addr: addr},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		dnsConn.Close()

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
		// Let at least one periodic checkpoint fire before the kill, so the
		// ticker path is exercised, not only the final drain checkpoint.
		time.Sleep(120 * time.Millisecond)
		cancel()
		if err := <-runDone; err != nil {
			t.Fatalf("incarnation 1 Run = %v", err)
		}
		if st := c.Stats(); st.Checkpoints < 2 { // >=1 periodic + the final one
			t.Fatalf("checkpoints = %d, want >= 2 (stats %+v)", st.Checkpoints, st)
		}
		if _, err := os.Stat(snapPath); err != nil {
			t.Fatalf("no checkpoint written: %v", err)
		}
	}

	// --- Incarnation 2: flows only; attribution must come from the snapshot. ---
	{
		nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Lanes = 8 // different layout on purpose: restore re-places by hash
		cfg.SnapshotPath = snapPath
		sink := core.NewCountingSink()
		c := core.New(cfg, core.WithSink(sink), core.WithSources(stream.NewFlowUDPSource(nfConn)))
		rst, rerr := c.RestoreResult()
		if rerr != nil {
			t.Fatalf("restore: %v", rerr)
		}
		if rst.Entries == 0 {
			t.Fatalf("restore stats = %+v, want warm state", rst)
		}
		ctx, cancel := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		go func() { runDone <- c.Run(ctx) }()

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
		deadline := time.After(5 * time.Second)
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
		cancel()
		if err := <-runDone; err != nil {
			t.Fatalf("incarnation 2 Run = %v", err)
		}

		st := c.Stats()
		if st.DNSRecords != 0 {
			t.Fatalf("incarnation 2 saw %d DNS records; the test is broken", st.DNSRecords)
		}
		if st.CorrelationRate() != 1.0 {
			t.Fatalf("correlation rate after restart = %v, want 1.0 (restored state missing)", st.CorrelationRate())
		}
		counts := sink.Bytes()
		for i := 0; i < services; i++ {
			name := fmt.Sprintf("svc%02d.example", i)
			if counts[name] != 1000 {
				t.Fatalf("bytes[%s] = %d, want 1000 (CNAME walk through restored NAME-CNAME store)", name, counts[name])
			}
		}
	}
}

// TestLoopbackSoak is the nightly soak: sustained generator traffic over
// real loopback sockets with aggressive checkpoint cadence, under -race.
// It only runs when FLOWDNS_SOAK is set to a duration ("60s" in the nightly
// workflow); PR CI skips it.
func TestLoopbackSoak(t *testing.T) {
	soak := os.Getenv("FLOWDNS_SOAK")
	if soak == "" {
		t.Skip("set FLOWDNS_SOAK=60s to run the soak")
	}
	dur, err := time.ParseDuration(soak)
	if err != nil {
		t.Fatalf("bad FLOWDNS_SOAK %q: %v", soak, err)
	}

	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "store.snapshot")
	cfg := core.DefaultConfig()
	cfg.Lanes = 8
	cfg.SnapshotPath = snapPath
	cfg.SnapshotEvery = 250 * time.Millisecond // stress checkpoint-vs-fill concurrency
	sink := core.NewCountingSink()
	c := core.New(cfg, core.WithSink(sink), core.WithSources(stream.NewFlowUDPSource(nfConn)))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	udp, err := net.Dial("udp", nfConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	nfSink := stream.NewFlowUDPSink(udp, 7, 10)

	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 99)
	ts := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	stopAt := time.Now().Add(dur)
	var sent uint64
	for time.Now().Before(stopAt) {
		ts = ts.Add(250 * time.Millisecond)
		dns := g.DNSBatch(ts, 200)
		c.OfferDNSBatch(dns)
		for _, fr := range g.FlowBatch(ts, 400) {
			if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
				continue
			}
			if err := nfSink.Send(fr); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := nfSink.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // let the UDP reader keep pace
	}
	udp.Close()
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}

	st := c.Stats()
	t.Logf("soak: %v, sent %d flows, stats %+v", dur, sent, st)
	if st.Flows == 0 || st.Correlated == 0 {
		t.Fatalf("soak processed nothing: %+v", st)
	}
	if st.CheckpointErrors != 0 {
		t.Fatalf("checkpoint errors during soak: %d", st.CheckpointErrors)
	}
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints written during soak")
	}
	// The checkpoint left behind must be a valid warm-boot source.
	cfg2 := core.DefaultConfig()
	cfg2.SnapshotPath = snapPath
	c2 := core.New(cfg2)
	if rst, err := c2.RestoreResult(); err != nil || rst.Entries == 0 {
		t.Fatalf("post-soak restore: %+v, %v", rst, err)
	}
}

// TestStaleTempsRemovedAtBoot plants the temporary files a writer killed
// between create and rename leaves beside each durable format's published
// file, and checks that booting over them — restore-on-boot for the
// snapshot, Open for the window store — removes every one while keeping
// the published file and unrelated files.
func TestStaleTempsRemovedAtBoot(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		publish    func(path string) error
		boot       func(t *testing.T, dir, path string)
	}{
		{
			name: "snapshot",
			file: "store.snapshot",
			publish: func(path string) error {
				return snapshot.WriteFile(path, 1, func(*snapshot.Writer) error { return nil })
			},
			boot: func(t *testing.T, _, path string) {
				cfg := core.DefaultConfig()
				cfg.SnapshotPath = path
				if _, err := core.New(cfg).RestoreResult(); err != nil {
					t.Fatalf("restore: %v", err)
				}
			},
		},
		{
			name: "segment",
			file: "part-0-3600.seg",
			publish: func(path string) error {
				return winstore.WriteSegmentFile(path, &winstore.Segment{Start: time.Unix(0, 0), Dur: time.Hour})
			},
			boot: func(t *testing.T, dir, _ string) {
				s, err := winstore.Open(winstore.Config{Dir: dir, PartDur: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.file)
			if err := tc.publish(path); err != nil {
				t.Fatal(err)
			}
			stale := []string{path + ".tmp123456789", path + ".tmp42"}
			unrelated := filepath.Join(dir, "notes.txt")
			for _, p := range append(stale, unrelated) {
				if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tc.boot(t, dir, path)
			for _, p := range stale {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("stale temp %s survived boot (stat err %v)", filepath.Base(p), err)
				}
			}
			for _, p := range []string{path, unrelated} {
				if _, err := os.Stat(p); err != nil {
					t.Errorf("boot removed %s: %v", filepath.Base(p), err)
				}
			}
		})
	}
}
