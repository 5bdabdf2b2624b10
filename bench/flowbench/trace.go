package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/bench/refmodel"
	"repro/internal/cmap"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/forward"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// span is one timed call into a layer: name, start, end (ns since the
// tracer's origin), the span that caused it (-1 for a root) and the batch
// both belong to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, parent, batch int32) int32 {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Batch: batch})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is a layer's aggregate: Busy sums span durations, Self is Busy
// minus the part direct children cover.
type layerTime struct {
	Busy  time.Duration `json:"busy_ns"`
	Self  time.Duration `json:"self_ns"`
	Calls int           `json:"calls"`
}

func selfTimes(spans []span) map[string]layerTime {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		lt.Busy += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - children[i])
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// threadCPU is the calling OS thread's CPU time. A goroutine locked to its
// thread reads its own busy time with it, parked waits excluded.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// countIngest is the shim stream.Ingest behind the traced sources.
type countIngest struct{ flows, dns atomic.Uint64 }

func (c *countIngest) OfferDNS(stream.DNSRecord) bool { c.dns.Add(1); return true }
func (c *countIngest) OfferDNSBatch(r []stream.DNSRecord) int {
	c.dns.Add(uint64(len(r)))
	return len(r)
}
func (c *countIngest) OfferFlow(netflow.FlowRecord) bool { c.flows.Add(1); return true }
func (c *countIngest) OfferFlowBatch(r []netflow.FlowRecord) int {
	c.flows.Add(uint64(len(r)))
	return len(r)
}

// streamPass drives the ring through the real socket sources into a counting
// shim and returns each source's busy thread time and counters.
type streamStats struct {
	flowBusy, dnsBusy time.Duration
	flow, dns         stream.SourceStats
}

func streamPass(w *wire, tr *tracer, budget time.Duration) (streamStats, error) {
	var st streamStats
	shim := &countIngest{}

	// Flow datagrams over a loopback UDP socket into FlowUDPSource.Run.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	pc.(*net.UDPConn).SetReadBuffer(4 << 20)
	src := stream.NewFlowUDPSource(pc)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		id := tr.begin("stream.FlowUDPSource.Run", -1, -1)
		cpu := threadCPU()
		err := src.Run(ctx, shim)
		st.flowBusy = threadCPU() - cpu
		tr.end(id)
		done <- err
	}()
	out, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		cancel()
		<-done
		return st, err
	}
	// Stay at most a window ahead of the source, as the real run does.
	start := time.Now()
	var sent uint64
	for i := 0; time.Since(start) < budget/2; i++ {
		d := &w.flows[i%len(w.flows)]
		for stall := time.Now(); sent-shim.flows.Load() >= flowWindow && time.Since(stall) < time.Second; {
			runtime.Gosched()
		}
		if _, err := out.Write(d.b); err != nil {
			break
		}
		sent += uint64(d.records)
	}
	for deadline := time.Now().Add(time.Second); shim.flows.Load() < sent && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	out.Close()
	cancel()
	if err := <-done; err != nil {
		return st, err
	}
	st.flow = src.Stats()

	// DNS frames over a loopback TCP connection into DNSTCPSource.Run (what
	// DNSListener.Run starts per accepted stream).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return st, err
	}
	conn, err := ln.Accept()
	if err != nil {
		client.Close()
		return st, err
	}
	dsrc := stream.NewDNSTCPSource(conn)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		id := tr.begin("stream.DNSTCPSource.Run", -1, -1)
		cpu := threadCPU()
		err := dsrc.Run(context.Background(), shim)
		st.dnsBusy = threadCPU() - cpu
		tr.end(id)
		done <- err
	}()
	start = time.Now()
	for i := 0; time.Since(start) < budget/2; i++ {
		if _, err := client.Write(w.dns[i%len(w.dns)].b); err != nil {
			break
		}
	}
	client.Close() // EOF ends the source cleanly
	if err := <-done; err != nil {
		return st, err
	}
	st.dns = dsrc.Stats()
	return st, nil
}

// pipeCounts is what one direct pipeline pass processed.
type pipeCounts struct {
	elapsed               time.Duration
	flows, dgrams         uint64
	ipfixFlows            uint64
	secondDecodes         uint64 // cluster: worker-side re-decoded flows
	dnsRecords, dnsFrames uint64
	templateMisses        uint64
	sinkBatches, sinkRows uint64
	stats                 core.Stats
	snapshotTime          time.Duration
	snapshotBytes         int64
	routed, spilled       uint64
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// nullNodes opens two forwarding targets that accept and discard: bound UDP
// sockets nobody reads and TCP listeners draining to io.Discard.
func nullNodes() ([]forward.Node, func(), error) {
	var closers []io.Closer
	closeAll := func() {
		for _, c := range closers {
			c.Close()
		}
	}
	var nodes []forward.Node
	for _, name := range []string{"w1", "w2"} {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		closers = append(closers, pc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		closers = append(closers, ln)
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() { io.Copy(io.Discard, c); c.Close() }()
			}
		}()
		nodes = append(nodes, forward.Node{Name: name, FlowAddr: pc.LocalAddr().String(), DNSAddr: ln.Addr().String()})
	}
	return nodes, closeAll, nil
}

// decodeChunk decodes every framed message of c into recs.
func decodeChunk(c *chunk, recs []stream.DNSRecord, now time.Time) ([]stream.DNSRecord, int) {
	frames := 0
	for b := c.b; len(b) >= 2; {
		n := int(binary.BigEndian.Uint16(b))
		if msg, err := dnswire.Decode(b[2 : 2+n]); err == nil {
			recs = stream.FlattenResponseInto(recs, msg, now)
		}
		b = b[2+n:]
		frames++
	}
	return recs, frames
}

// pipelinePass drives the ring through each layer's public functions on one
// goroutine, a span around every call: decode → (fanout → re-decode) →
// lookup → sink for flow batches, decode → (fanout) → fill for DNS chunks.
// Counts accumulate into pc when it is passed back in; the store-state
// figures (stats, snapshot) are those of the last pass.
func pipelinePass(w *wire, tr *tracer, budget time.Duration, dnsPerFlow float64, pc *pipeCounts) (*pipeCounts, error) {
	if pc == nil {
		pc = &pipeCounts{}
	}
	c := core.New(core.DefaultConfig())
	now := time.Now()
	var recs []stream.DNSRecord
	for i := range w.preload {
		recs, _ = decodeChunk(&w.preload[i], recs[:0], now)
		c.IngestDNSBatch(recs)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	defer devnull.Close()
	sink := core.NewTSVSink(devnull)
	var router *forward.Router
	if w.sp.Cluster {
		nodes, closeNodes, err := nullNodes()
		if err != nil {
			return nil, err
		}
		defer closeNodes()
		if router, err = forward.NewRouter(forward.Config{Nodes: nodes}); err != nil {
			return nil, err
		}
	}
	v9cache, ipfixCache := netflow.NewTemplateCache(), ipfix.NewCache()
	workerCache := netflow.NewTemplateCache()
	var flows, flows2 []netflow.FlowRecord
	var out []core.CorrelatedFlow
	var reenc []byte
	ctx := context.Background()
	const batchDgrams = stream.DefaultIngestBatch
	next, dnsChunk := 0, 0
	var dnsDone, flowsDone float64 // this pass only: the DNS-per-flow coupling
	start := time.Now()
	pkts := make([]*dgram, 0, batchDgrams)
	for batch := int32(0); time.Since(start) < budget; batch++ {
		root := tr.begin("flow.batch", -1, batch)
		pkts = pkts[:0]
		for i := 0; i < batchDgrams; i++ {
			pkts = append(pkts, &w.flows[next%len(w.flows)])
			next++
		}
		flows = flows[:0]
		id := tr.begin("netflow.decode", root, batch)
		for _, d := range pkts {
			switch binary.BigEndian.Uint16(d.b) {
			case 5:
				if flows, err = netflow.AppendV5Flows(d.b, flows); err != nil {
					return nil, err
				}
			case 9:
				p, err := netflow.DecodeV9(d.b, v9cache)
				if err != nil {
					return nil, err
				}
				pc.templateMisses += uint64(p.UnknownDataSets)
				flows = append(flows, p.Records...)
			}
		}
		tr.end(id)
		if w.sp.Proto != "v5" {
			id = tr.begin("ipfix.decode", root, batch)
			for _, d := range pkts {
				if binary.BigEndian.Uint16(d.b) != ipfix.Version {
					continue
				}
				m, err := ipfix.Decode(d.b, ipfixCache)
				if err != nil {
					return nil, err
				}
				pc.templateMisses += uint64(m.UnknownDataSets)
				pc.ipfixFlows += uint64(len(m.Records))
				flows = append(flows, m.Records...)
			}
			tr.end(id)
		}
		look := flows
		if router != nil {
			id = tr.begin("forward.fanout", root, batch)
			router.OfferFlowBatch(flows)
			tr.end(id)
			// Worker side: the router's v9 re-encoding (not timed here, it
			// is inside fanout) decoded a second time.
			flows2 = flows2[:0]
			for off := 0; off < len(flows); off += forward.DefaultFlowBatch {
				chunk := flows[off:min(off+forward.DefaultFlowBatch, len(flows))]
				if reenc, err = netflow.AppendV9(reenc[:0], netflow.V9Header{SourceID: 1}, netflow.StandardTemplate(), chunk); err != nil {
					return nil, err
				}
				id = tr.begin("netflow.redecode", root, batch)
				p, err := netflow.DecodeV9(reenc, workerCache)
				tr.end(id)
				if err != nil {
					return nil, err
				}
				flows2 = append(flows2, p.Records...)
			}
			pc.secondDecodes += uint64(len(flows2))
			look = flows2
		}
		id = tr.begin("core.lookup", root, batch)
		out = c.CorrelateBatch(out[:0], look)
		tr.end(id)
		id = tr.begin("sink.write", root, batch)
		for off := 0; off < len(out); off += core.DefaultWriteBatchSize {
			if err := sink.WriteBatch(ctx, out[off:min(off+core.DefaultWriteBatchSize, len(out))]); err != nil {
				return nil, err
			}
			pc.sinkBatches++
		}
		tr.end(id)
		tr.end(root)
		pc.sinkRows += uint64(len(out))
		pc.flows += uint64(len(flows))
		pc.dgrams += batchDgrams

		flowsDone += float64(len(flows))
		for dnsDone < flowsDone*dnsPerFlow {
			ch := &w.dns[dnsChunk%len(w.dns)]
			dnsChunk++
			root := tr.begin("dns.batch", -1, batch)
			id := tr.begin("dnswire.decode", root, batch)
			var frames int
			recs, frames = decodeChunk(ch, recs[:0], now)
			tr.end(id)
			if router != nil {
				id = tr.begin("forward.fanout", root, batch)
				router.OfferDNSBatch(recs)
				tr.end(id)
			}
			id = tr.begin("core.fill", root, batch)
			c.IngestDNSBatch(recs)
			tr.end(id)
			tr.end(root)
			pc.dnsRecords += uint64(len(recs))
			pc.dnsFrames += uint64(frames)
			dnsDone += float64(len(recs))
		}
	}
	pc.elapsed += time.Since(start)
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	pc.stats = c.Stats()
	if router != nil {
		for _, ns := range router.Stats() {
			pc.routed += ns.Flows
			pc.spilled += ns.Retry.Spilled
		}
	}
	if tr.on {
		cw := &countWriter{}
		id := tr.begin("snapshot.write", -1, -1)
		t := time.Now()
		if err := c.WriteSnapshot(cw, t.UnixNano()); err != nil {
			return nil, err
		}
		pc.snapshotTime = time.Since(t)
		tr.end(id)
		pc.snapshotBytes = cw.n
	}
	return pc, nil
}

// cmapReplay replays the ring's fill keys through SetBytesHash and its flow
// source addresses through GetBytesHash on a bare cmap.Map.
func cmapReplay(w *wire, tr *tracer) (setNs, getNs float64) {
	type kv struct {
		h   uint32
		key [16]byte
		val string
	}
	var sets []kv
	var recs []stream.DNSRecord
	for i := 0; i < len(w.dns) && len(sets) < 200_000; i++ {
		recs, _ = decodeChunk(&w.dns[i], recs[:0], wireEpoch)
		for j := range recs {
			if recs[j].Addr.IsValid() {
				sets = append(sets, kv{core.IPHashAddr(recs[j].Addr), recs[j].Addr.As16(), recs[j].Query})
			}
		}
	}
	gets := make([]kv, 0, min(len(w.v4flows), 200_000))
	for i := range w.v4flows[:cap(gets)] {
		a := w.v4flows[i].SrcIP
		gets = append(gets, kv{h: core.IPHashAddr(a), key: a.As16()})
	}
	m := cmap.New()
	id := tr.begin("cmap.SetBytesHash", -1, -1)
	t := time.Now()
	for i := range sets {
		m.SetBytesHash(sets[i].h, sets[i].key[:], sets[i].val)
	}
	setNs = float64(time.Since(t)) / float64(max(len(sets), 1))
	tr.end(id)
	id = tr.begin("cmap.GetBytesHash", -1, -1)
	t = time.Now()
	hits := 0
	for i := range gets {
		if _, ok := m.GetBytesHash(gets[i].h, gets[i].key[:]); ok {
			hits++
		}
	}
	getNs = float64(time.Since(t)) / float64(max(len(gets), 1))
	tr.end(id)
	_ = hits
	return setNs, getNs
}

// waitSink is the shim sink of the queue pass: it samples how long records
// waited between the lookup queue's entry and the sink, then writes them.
type waitSink struct {
	inner   core.Sink
	rows    atomic.Uint64
	mu      sync.Mutex
	waitsMs []float64
}

func (s *waitSink) WriteBatch(ctx context.Context, batch []core.CorrelatedFlow) error {
	now := time.Now()
	s.mu.Lock()
	for i := 0; i < len(batch); i += stampEvery {
		if !batch[i].EnqueuedAt.IsZero() {
			s.waitsMs = append(s.waitsMs, float64(now.Sub(batch[i].EnqueuedAt))/float64(time.Millisecond))
		}
	}
	s.mu.Unlock()
	err := s.inner.WriteBatch(ctx, batch)
	s.rows.Add(uint64(len(batch)))
	return err
}
func (s *waitSink) Flush() error { return s.inner.Flush() }
func (s *waitSink) Close() error { return s.inner.Close() }

// queuePass runs the whole asynchronous pipeline in-process — real sources,
// stage queues and workers — behind the shim sink, under the workload's
// load shape, and returns the median lookup-queue-to-sink wait with the
// queues' own ledgers.
func queuePass(w *wire, budget time.Duration, dnsPerFlow float64) (waitP50Ms float64, st core.Stats, err error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, st, err
	}
	pc.(*net.UDPConn).SetReadBuffer(4 << 20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pc.Close()
		return 0, st, err
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return 0, st, err
	}
	defer devnull.Close()
	sink := &waitSink{inner: core.NewTSVSink(devnull)}
	c := core.New(core.DefaultConfig(), core.WithSink(sink),
		core.WithSources(stream.NewFlowUDPSource(pc), stream.NewDNSListener(ln)))
	now := time.Now()
	var recs []stream.DNSRecord
	for i := range w.preload {
		recs, _ = decodeChunk(&w.preload[i], recs[:0], now)
		c.IngestDNSBatch(recs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	udp, err := net.Dial("udp", pc.LocalAddr().String())
	if err == nil {
		var tcp net.Conn
		if tcp, err = net.Dial("tcp", ln.Addr().String()); err == nil {
			var sent, dns uint64
			start := time.Now()
			for i, j := 0, 0; time.Since(start) < budget; {
				if w.sp.FlowRate > 0 {
					if float64(sent) >= w.sp.FlowRate*time.Since(start).Seconds() {
						time.Sleep(20 * time.Microsecond)
						continue
					}
				} else if sent-sink.rows.Load() >= flowWindow {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				d := &w.flows[i%len(w.flows)]
				i++
				if _, err = udp.Write(d.b); err != nil {
					break
				}
				sent += uint64(d.records)
				for float64(dns) < float64(sent)*dnsPerFlow {
					ch := &w.dns[j%len(w.dns)]
					j++
					if _, err = tcp.Write(ch.b); err != nil {
						break
					}
					dns += uint64(ch.records)
				}
			}
			tcp.Close()
		}
		udp.Close()
	}
	cancel()
	if rerr := <-done; err == nil {
		err = rerr
	}
	sort.Float64s(sink.waitsMs)
	return percentile(sink.waitsMs, 50), c.Stats(), err
}

// baselinePass feeds the ring's IPv4 flows, re-encoded as 30-record v5
// exports, through the naive reference collector.
func baselinePass(w *wire, budget time.Duration) (nsPerFlow float64, err error) {
	m := refmodel.New(core.DefaultAClearUpInterval)
	var recs []stream.DNSRecord
	for i := range w.preload {
		recs, _ = decodeChunk(&w.preload[i], recs[:0], wireEpoch)
		modelIngest(m, recs)
	}
	var pkts [][]byte
	for off := 0; off+30 <= len(w.v4flows) && len(pkts) < 512; off += 30 {
		wire := make([]netflow.V5Record, 30)
		for i := range wire {
			if wire[i], err = netflow.FromFlowRecord(w.v4flows[off+i]); err != nil {
				return 0, err
			}
		}
		b, err := netflow.EncodeV5(netflow.V5Header{UnixSecs: uint32(wireEpoch.Unix())}, wire)
		if err != nil {
			return 0, err
		}
		pkts = append(pkts, b)
	}
	if len(pkts) == 0 {
		return 0, fmt.Errorf("flowbench: no IPv4 flows for the baseline")
	}
	start := time.Now()
	flows := 0
	for i := 0; time.Since(start) < budget; i++ {
		n, err := m.V5Datagram(pkts[i%len(pkts)], io.Discard)
		if err != nil {
			return 0, err
		}
		flows += n
	}
	return float64(time.Since(start)) / float64(flows), nil
}

// traceData is everything the traced run measured; metrics turns it into the
// per-layer report.
type traceData struct {
	ref                      *result
	pp                       *pipeCounts
	ss                       streamStats
	lt                       map[string]layerTime
	setNs, getNs             float64
	waitMs, baseNs           float64
	qst                      core.Stats
	tracedRate, untracedRate float64
}

// metrics returns every per-layer metric, the per-flow budget behind the
// shares, and the reference run's child CPU per flow the budget is
// reconciled against.
func (d *traceData) metrics() (map[string]metric, map[string]float64, float64) {
	lt, pp, ss, ref, qst := d.lt, d.pp, d.ss, d.ref, d.qst
	dnsPerFlow := 0.0
	if ref.FlowsPerS > 0 {
		dnsPerFlow = ref.DNSPerS / ref.FlowsPerS
	}
	per := func(name string, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(lt[name].Self) / float64(n)
	}
	div := func(a float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return a / float64(n)
	}
	netflowNs := per("netflow.decode", pp.flows-pp.ipfixFlows)
	ipfixNs := per("ipfix.decode", pp.ipfixFlows)
	decodePerDgram := div(float64(lt["netflow.decode"].Self+lt["ipfix.decode"].Self), pp.dgrams)
	dnsDecodePerFrame := div(float64(lt["dnswire.decode"].Self), pp.dnsFrames)
	readPerDgram := max(0, div(float64(ss.flowBusy), ss.flow.Frames)-decodePerDgram)
	dnsReadPerFrame := max(0, div(float64(ss.dnsBusy), ss.dns.Frames)-dnsDecodePerFrame)
	lookupNs := per("core.lookup", pp.flows)
	waitMs := max(0, d.waitMs-lookupNs*128/1e6) // less one lookup batch's service time

	// Per-flow budget: each layer's cost per delivered flow, DNS layers
	// weighted by the reference run's DNS-records-per-flow ratio.
	recsPerDgram := div(float64(pp.flows), pp.dgrams)
	recsPerFrame := div(float64(pp.dnsRecords), pp.dnsFrames)
	budget := map[string]float64{
		"stream":  readPerDgram/recsPerDgram + dnsPerFlow*dnsReadPerFrame/max(recsPerFrame, 1),
		"decode":  div(float64(lt["netflow.decode"].Self+lt["ipfix.decode"].Self+lt["netflow.redecode"].Self), pp.flows),
		"dnswire": dnsPerFlow * per("dnswire.decode", pp.dnsRecords),
		"fill":    dnsPerFlow * per("core.fill", pp.dnsRecords),
		"lookup":  lookupNs,
		"sink":    per("sink.write", pp.flows),
		"forward": div(float64(lt["forward.fanout"].Self), pp.flows),
	}
	var total float64
	for _, v := range budget {
		total += v
	}
	childNsPerFlow := ref.CPUsPerMflow * 1000
	chainSum, chainN := 0.0, 0.0
	for hops, n := range pp.stats.ChainHist {
		chainSum += float64(hops) * float64(n)
		chainN += float64(n)
	}

	m := map[string]metric{
		"stream.read_ns_per_datagram":  {readPerDgram, "ns"},
		"stream.dns_read_ns_per_frame": {dnsReadPerFrame, "ns"},
		"stream.frames":                {float64(ss.flow.Frames + ss.dns.Frames), "count"},
		"stream.decode_errors":         {float64(ss.flow.DecodeError + ss.dns.DecodeError), "count"},
		"netflow.decode_ns":            {netflowNs, "ns"},
		"ipfix.decode_ns":              {ipfixNs, "ns"},
		"netflow.redecode_ns":          {per("netflow.redecode", pp.secondDecodes), "ns"},
		"netflow.template_misses":      {float64(pp.templateMisses), "count"},
		"dnswire.decode_ns":            {per("dnswire.decode", pp.dnsRecords), "ns"},
		"core.fill_ns":                 {per("core.fill", pp.dnsRecords), "ns"},
		"cmap.set_ns":                  {d.setNs, "ns"},
		"core.store_entries":           {float64(pp.stats.IPNameEntries + pp.stats.NameCnameEntries), "count"},
		"core.lookup_ns":               {lookupNs, "ns"},
		"cmap.get_ns":                  {d.getNs, "ns"},
		"core.useful_ratio":            {div(float64(pp.stats.Correlated), pp.stats.Flows), "ratio"},
		"core.hits_active":             {float64(pp.stats.HitActive), "count"},
		"core.hits_long":               {float64(pp.stats.HitLong), "count"},
		"core.chain_len_mean":          {chainSum / max(chainN, 1), "count"},
		"queue.wait_ms":                {waitMs, "ms"},
		"queue.offered":                {float64(qst.FillQueue.Offered() + qst.LookQueue.Offered() + qst.WriteQueue.Offered()), "count"},
		"queue.fill_lost":              {float64(qst.FillQueue.Lost()), "count"},
		"queue.look_lost":              {float64(qst.LookQueue.Lost()), "count"},
		"queue.write_lost":             {float64(qst.WriteQueue.Lost()), "count"},
		"sink.write_ns":                {per("sink.write", pp.flows), "ns"},
		"sink.batch_rows_mean":         {div(float64(pp.sinkRows), pp.sinkBatches), "count"},
		"forward.fanout_ns":            {budget["forward"], "ns"},
		"forward.routed":               {float64(pp.routed), "count"},
		"forward.spilled":              {float64(pp.spilled), "count"},
		"snapshot.write_ms":            {float64(pp.snapshotTime) / float64(time.Millisecond), "ms"},
		"snapshot.bytes":               {float64(pp.snapshotBytes), "count"},
		"baseline.ns_per_flow":         {d.baseNs, "ns"},
		"trace_coverage":               {total / childNsPerFlow, "ratio"},
		"trace_overhead":               {1 - d.tracedRate/d.untracedRate, "ratio"},
		"write_delay_p99_ms":           {ref.DelayTailMs, "ms"},
		"gen_late_p99_ms":              {ref.GenLateP99Ms, "ms"},
		"gen_ceiling_flows_per_s":      {ref.GenCeiling, "1/s"},
		"harness_cpu_cores":            {ref.HarnessCores, "cores"},
		"ledger_unexplained":           {float64(abs64(ref.Ledger.Unexplained) + abs64(ref.Ledger.DNSUnexplained) + abs64(ref.Ledger.RouterUnexplained)), "count"},
	}
	for layer, ns := range budget {
		m["share."+layer] = metric{100 * ns / total, "%"}
	}

	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[name] = v
		}
	}
	return m, budget, childNsPerFlow
}

// runTrace is --trace 1: a short untraced reference window against real
// child processes (for the CPU the layers should add up to), then the traced
// in-process passes over the same generated bytes.
func runTrace(bin, root string, w *wire, seed int64, seconds time.Duration, extra []string) (*report, error) {
	pr := measured(seconds / 3)
	pr.setups = 1
	ref, err := runE2E(bin, root, w, seed, pr, extra)
	if err != nil {
		return nil, err
	}
	dnsPerFlow := ref.DNSPerS / ref.FlowsPerS

	// Four direct pipeline passes, untraced and traced alternating, so the
	// tracing overhead compares like with like; spans of both traced passes
	// land in one tracer.
	tr := newTracer(true)
	var untracedRate, tracedRate float64
	var pp *pipeCounts
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			u, err := pipelinePass(w, newTracer(false), seconds/16, dnsPerFlow, nil)
			if err != nil {
				return nil, err
			}
			untracedRate += float64(u.flows) / u.elapsed.Seconds()
			continue
		}
		if pp, err = pipelinePass(w, tr, seconds/16, dnsPerFlow, pp); err != nil {
			return nil, err
		}
	}
	tracedRate = float64(pp.flows) / pp.elapsed.Seconds()
	untracedRate /= 2
	ss, err := streamPass(w, tr, seconds/6)
	if err != nil {
		return nil, err
	}
	setNs, getNs := cmapReplay(w, tr)
	waitMs, qst, err := queuePass(w, seconds/6, dnsPerFlow)
	if err != nil {
		return nil, err
	}
	baseNs, err := baselinePass(w, seconds/12)
	if err != nil {
		return nil, err
	}

	td := &traceData{ref: ref, pp: pp, ss: ss, lt: selfTimes(tr.spans), setNs: setNs, getNs: getNs,
		waitMs: waitMs, baseNs: baseNs, qst: qst, tracedRate: tracedRate, untracedRate: untracedRate}
	m, budget, childNsPerFlow := td.metrics()
	lt := td.lt
	if err := writeTrace(root, w.sp.Name, seed, tr.spans, lt, budget, childNsPerFlow); err != nil {
		return nil, err
	}
	printJSON(map[string]any{"reference_run": ref, "budget_ns_per_flow": budget, "child_cpu_ns_per_flow": childNsPerFlow})
	return &report{Correct: ref.Correct, Attempted: ref.Attempted, Failed: ref.Failed, Metrics: m}, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// writeTrace writes bench/out/trace-<workload>.json: the per-layer
// aggregates, the per-flow budget, and the first spans verbatim.
func writeTrace(root, name string, seed int64, spans []span, lt map[string]layerTime, budget map[string]float64, childNs float64) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	const keep = 20000
	doc := map[string]any{
		"workload": name, "seed": seed, "spans_recorded": len(spans),
		"layers": lt, "budget_ns_per_flow": budget, "child_cpu_ns_per_flow": childNs,
		"spans": spans[:min(len(spans), keep)],
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), data, 0o644)
}
