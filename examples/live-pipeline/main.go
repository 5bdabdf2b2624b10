// Live pipeline: the full deployment wiring over loopback sockets.
//
// This example reproduces the paper's topology in one process: two DNS
// streams delivered as length-prefixed DNS messages over TCP (as the ISP
// resolvers deliver cache misses to the collectors) and two NetFlow v9
// exporters over UDP, all fanned into a single FlowDNS correlator whose
// lanes emit TSV rows.
//
//	go run ./examples/live-pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/stream"
	"repro/internal/workload"
)

func parseAddr(s string) (netip.Addr, error) { return netip.ParseAddr(s) }

func main() {
	// --- collector side: sockets wrapped as v2 Sources, correlator run
	// under a cancellable context ---
	dnsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}

	sink := core.NewTSVSink(os.Stdout)
	sink.SkipMisses = true
	c := core.New(core.DefaultConfig(),
		core.WithSink(sink),
		core.WithSources(stream.NewDNSListener(dnsLn), stream.NewFlowUDPSource(nfConn)),
	)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	// --- emitter side: 2 DNS streams + 2 NetFlow exporters ---
	// Churn is disabled so both generator instances (DNS emitter and its
	// matching flow emitter) see an identical, immutable universe and the
	// flows reference exactly the announced edges.
	ucfg := workload.DefaultConfig()
	ucfg.ChurnRate = 0
	u := workload.NewUniverse(ucfg)
	base := time.Now()
	var emitters sync.WaitGroup
	for s := 0; s < 2; s++ {
		emitters.Add(1)
		go func(seed int64) {
			defer emitters.Done()
			conn, err := net.Dial("tcp", dnsLn.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			g := workload.NewGenerator(u, seed)
			dnsSink := stream.NewDNSTCPSink(conn)
			for i := 0; i < 400; i++ {
				msg := assemble(g.DNSQueryEvent(base.Add(time.Duration(i) * time.Second)))
				if msg == nil {
					continue
				}
				if err := dnsSink.Send(msg); err != nil {
					log.Printf("dns send: %v", err)
					return
				}
			}
		}(int64(s + 1))
	}
	emitters.Wait() // DNS leads flows, as resolution precedes traffic

	// The TCP writes above finish well before the collector has drained the
	// framed messages through the lanes into the store. Hold the flow
	// exporters until the fill counter goes quiet — DNSRecords advances only
	// after store insertion — so traffic starts against a warm store, as in
	// a real deployment where resolution precedes traffic by seconds. On a
	// single-CPU box the line-rate ingest path can otherwise race the whole
	// flow volume through LookUp before the fills land.
	for last, quiet := uint64(0), 0; quiet < 4; {
		time.Sleep(25 * time.Millisecond)
		if n := c.Stats().DNSRecords; n == last {
			quiet++
		} else {
			last, quiet = n, 0
		}
	}

	for s := 0; s < 2; s++ {
		emitters.Add(1)
		go func(seed int64) {
			defer emitters.Done()
			conn, err := net.Dial("udp", nfConn.LocalAddr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			g := workload.NewGenerator(u, seed) // same seeds: flows follow the announced edges
			nfSink := stream.NewFlowUDPSink(conn, uint32(seed), 20)
			warm := base.Add(400 * time.Second)
			// Re-announce into this generator's ring so its flows reference
			// edges the DNS streams also announced.
			for i := 0; i < 400; i++ {
				g.DNSQueryEvent(base.Add(time.Duration(i) * time.Second))
			}
			for i := 0; i < 4000; i++ {
				for _, fr := range g.FlowBatch(warm.Add(time.Duration(i)*time.Millisecond), 1) {
					if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
						continue
					}
					if err := nfSink.Send(fr); err != nil {
						log.Printf("netflow send: %v", err)
						return
					}
				}
			}
			nfSink.Flush()
		}(int64(s + 1))
	}
	emitters.Wait()

	// Let the UDP datagrams drain, then cancel the run context: the
	// pipeline closes its sources, drains every stage through the sink,
	// and Run returns.
	time.Sleep(300 * time.Millisecond)
	cancel()
	if err := <-runDone; err != nil {
		log.Fatalf("pipeline: %v", err)
	}

	st := c.Stats()
	fmt.Fprintf(os.Stderr, "\npipeline: dns records=%d flows=%d correlated=%.1f%% loss=%.4f%% writeDelay=%v\n",
		st.DNSRecords, st.Flows, 100*st.CorrelationRate(), 100*st.LossRate(),
		time.Duration(st.MaxWriteDelayNs).Round(time.Millisecond))
}

// assemble rebuilds a response message from flattened records.
func assemble(recs []stream.DNSRecord) *dnswire.Message {
	if len(recs) == 0 {
		return nil
	}
	m := &dnswire.Message{Header: dnswire.Header{Response: true}}
	m.Questions = []dnswire.Question{{Name: recs[0].Query, Type: dnswire.TypeA, Class: dnswire.ClassIN}}
	for _, rec := range recs {
		r := dnswire.Record{Name: rec.Query, Type: rec.RType, Class: dnswire.ClassIN, TTL: rec.TTL}
		if rec.RType == dnswire.TypeCNAME {
			r.Target = rec.Answer
		} else {
			r.Addr = rec.Addr
			if !r.Addr.IsValid() {
				addr, err := parseAddr(rec.Answer)
				if err != nil {
					continue
				}
				r.Addr = addr
			}
		}
		m.Answers = append(m.Answers, r)
	}
	if len(m.Answers) == 0 {
		return nil
	}
	return m
}
