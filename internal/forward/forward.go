package forward

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// Node is one downstream correlator process: a name (its ring identity)
// plus the two wire addresses the router ships to — NetFlow v9 over UDP
// and framed DNS responses over TCP.
type Node struct {
	Name     string `json:"name"`
	FlowAddr string `json:"flow_addr"`
	DNSAddr  string `json:"dns_addr"`
}

// ParseNodes parses the -forward-to flag grammar: a comma-separated list
// of "name=flowHost:port/dnsHost:port" entries.
func ParseNodes(spec string) ([]Node, error) {
	var out []Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addrs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("forward: node %q: want name=flowAddr/dnsAddr", part)
		}
		flowAddr, dnsAddr, ok := strings.Cut(addrs, "/")
		if !ok || flowAddr == "" || dnsAddr == "" {
			return nil, fmt.Errorf("forward: node %q: want name=flowAddr/dnsAddr", part)
		}
		out = append(out, Node{Name: name, FlowAddr: flowAddr, DNSAddr: dnsAddr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("forward: no nodes in %q", spec)
	}
	return out, nil
}

// Config tunes a Router.
type Config struct {
	// Nodes lists the downstream workers. Required, at least one.
	Nodes []Node
	// VNodes is the virtual-node count per node; 0 = DefaultVNodes.
	VNodes int
	// Key selects which flow address routes the record — it must match the
	// workers' lookup key, so a flow lands on the node holding the fills
	// for the address the worker will resolve. LookupBoth has no single
	// routing address; the router uses the source, so destination-side
	// fallback hits degrade to local misses on the wrong node.
	Key core.LookupKey
	// FlowBatch is the record count per v9 datagram; 0 = 32.
	FlowBatch int
	// SourceID stamps the v9 export headers; 0 = 1.
	SourceID uint32
	// Retry tunes the per-node core.RetrySink wrapping the flow path. The
	// zero value takes forwarding-tuned defaults: no per-attempt timeout
	// or in-line retries (a UDP write fails fast or not at all; blocking
	// the ingest path on backoff would stall every node behind one), so a
	// node outage degrades to the bounded spill queue, replayed on the
	// next write once the node recovers.
	Retry core.RetryConfig
	// SpillDir, when non-empty, gives each node's RetrySink an on-disk
	// spill file (SpillDir/<name>.spill) so a long worker outage survives
	// a router restart. Empty keeps the backlog in memory only.
	SpillDir string
}

// DefaultFlowBatch is the per-datagram record cap: 32 standard-template
// records stay well under one loopback/ethernet MTU's worth of payload
// while amortizing the 20-byte header and template set.
const DefaultFlowBatch = 32

// nodeCounters is the per-node atomic accounting block.
type nodeCounters struct {
	flows      atomic.Uint64 // flow records routed to this node
	dns        atomic.Uint64 // DNS records routed (addressed) to this node
	dnsCname   atomic.Uint64 // CNAME records broadcast to this node
	dnsDropped atomic.Uint64 // DNS records lost after a failed send+reconnect
}

// NodeStats is one node's health snapshot: routed volume, DNS drops, and
// the flow path's RetrySink ledger (delivery, spill depth — the
// backpressure signal — and drops against full spill bounds).
type NodeStats struct {
	Node       Node            `json:"node"`
	Flows      uint64          `json:"flows"`
	DNS        uint64          `json:"dns"`
	DNSCname   uint64          `json:"dns_cname"`
	DNSDropped uint64          `json:"dns_dropped"`
	Retry      core.RetryStats `json:"retry"`
}

// routerNode is one downstream worker from the router's side.
type routerNode struct {
	node  Node
	retry *core.RetrySink // wraps the flow path's v9/UDP sink
	dns   *dnsSender
	count nodeCounters
}

// Router consistent-hashes records onto worker nodes and re-emits them
// over the NetFlow/DNS wire encodings. It implements stream.Ingest, so the
// existing sources (DNS listeners, NetFlow sockets) feed it exactly as
// they would feed a local correlator; offers are safe for concurrent use
// by any number of sources. Flow fanout rides a per-node core.RetrySink,
// so a worker outage degrades to accounted spill-and-replay, never to an
// ingest stall.
type Router struct {
	ring      *Ring
	nodes     []*routerNode // indexed like ring.Nodes()
	key       core.LookupKey
	flowBatch int

	stagePool sync.Pool // *routeStage

	// base is the context offers hand to the per-node sinks; Run swaps in
	// its own. Offers never block on it (the retry sinks are tuned not to
	// wait), it only propagates cancellation metadata.
	base atomic.Pointer[context.Context]
}

// routeStage is the reusable per-offer partition buffer.
type routeStage struct {
	perNode [][]core.CorrelatedFlow
	dns     [][]stream.DNSRecord
	bcast   []stream.DNSRecord
}

// NewRouter connects to every node and builds the ring. Flow sockets are
// connected UDP (so a dead worker surfaces as an ICMP-driven write error
// the RetrySink can account); DNS connections are dialed lazily on first
// send and redialed after failures.
func NewRouter(cfg Config) (*Router, error) {
	names := make([]string, len(cfg.Nodes))
	byName := make(map[string]Node, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		names[i] = n.Name
		byName[n.Name] = n
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.FlowBatch <= 0 {
		cfg.FlowBatch = DefaultFlowBatch
	}
	if cfg.SourceID == 0 {
		cfg.SourceID = 1
	}
	retryCfg := cfg.Retry
	if retryCfg == (core.RetryConfig{}) {
		retryCfg = core.RetryConfig{MaxRetries: -1, Timeout: -1}
	}
	r := &Router{ring: ring, key: cfg.Key, flowBatch: cfg.FlowBatch}
	bg := context.Background()
	r.base.Store(&bg)
	// Node order follows the ring's canonical (sorted) order so Owner's
	// index addresses r.nodes directly.
	for _, name := range ring.Nodes() {
		n := byName[name]
		conn, err := net.Dial("udp", n.FlowAddr)
		if err != nil {
			return nil, fmt.Errorf("forward: node %s flow dial %s: %w", n.Name, n.FlowAddr, err)
		}
		rc := retryCfg
		if cfg.SpillDir != "" {
			rc.SpillPath = cfg.SpillDir + "/" + n.Name + ".spill"
		}
		fs := &flowSink{conn: conn, sourceID: cfg.SourceID, batch: cfg.FlowBatch, now: time.Now}
		rs, err := core.NewRetrySink(fs, rc)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("forward: node %s: %w", n.Name, err)
		}
		r.nodes = append(r.nodes, &routerNode{
			node:  n,
			retry: rs,
			dns:   &dnsSender{addr: n.DNSAddr},
		})
	}
	r.stagePool.New = func() any {
		return &routeStage{
			perNode: make([][]core.CorrelatedFlow, len(r.nodes)),
			dns:     make([][]stream.DNSRecord, len(r.nodes)),
		}
	}
	return r, nil
}

// routeAddr returns the address whose hash places fr on the ring: the same
// address the worker's LookUp stage will resolve.
func (r *Router) routeAddr(fr *netflow.FlowRecord) netip.Addr {
	if r.key == core.LookupDestination {
		return fr.DstIP
	}
	return fr.SrcIP
}

// OfferFlow implements stream.Ingest.
func (r *Router) OfferFlow(fr netflow.FlowRecord) bool {
	return r.OfferFlowBatch([]netflow.FlowRecord{fr}) == 1
}

// OfferFlowBatch partitions a flow batch by ring ownership of each
// record's routing address and hands every node's share to its retry-
// wrapped v9 sink. The retry sink absorbs outages (spill, replay, bounded
// drop — all accounted per node), so the offer itself accepts every
// record; cluster-level loss shows up in NodeStats, not here.
func (r *Router) OfferFlowBatch(frs []netflow.FlowRecord) int {
	if len(frs) == 0 {
		return 0
	}
	st := r.stagePool.Get().(*routeStage)
	for i := range frs {
		h := core.IPHashAddr(r.routeAddr(&frs[i]))
		n := r.ring.Owner(h)
		st.perNode[n] = append(st.perNode[n], core.CorrelatedFlow{Flow: frs[i]})
	}
	ctx := *r.base.Load()
	for n := range st.perNode {
		if len(st.perNode[n]) == 0 {
			continue
		}
		node := r.nodes[n]
		node.retry.WriteBatch(ctx, st.perNode[n]) // absorb semantics: never errors
		node.count.flows.Add(uint64(len(st.perNode[n])))
		st.perNode[n] = st.perNode[n][:0]
	}
	r.stagePool.Put(st)
	return len(frs)
}

// OfferDNS implements stream.Ingest.
func (r *Router) OfferDNS(rec stream.DNSRecord) bool {
	return r.OfferDNSBatch([]stream.DNSRecord{rec}) == 1
}

// OfferDNSBatch partitions a DNS batch: A/AAAA records route by the answer
// address (the key their fill will be stored under), records without a
// typed address — CNAMEs above all — are broadcast to every node, keeping
// each worker's NAME-CNAME chain walk complete. Returns how many records
// were accepted; a record counts as dropped only if every node it was
// destined for rejected it.
func (r *Router) OfferDNSBatch(recs []stream.DNSRecord) int {
	if len(recs) == 0 {
		return 0
	}
	st := r.stagePool.Get().(*routeStage)
	st.bcast = st.bcast[:0]
	for i := range recs {
		rec := recs[i]
		rec.TypeAnswerAddr()
		if rec.Addr.IsValid() {
			n := r.ring.Owner(core.IPHashAddr(rec.Addr))
			st.dns[n] = append(st.dns[n], rec)
		} else {
			st.bcast = append(st.bcast, rec)
		}
	}
	accepted := 0
	for n := range st.dns {
		node := r.nodes[n]
		addressed := len(st.dns[n])
		if len(st.bcast) > 0 {
			st.dns[n] = append(st.dns[n], st.bcast...)
		}
		if len(st.dns[n]) == 0 {
			continue
		}
		sent := len(st.dns[n])
		if err := node.dns.send(st.dns[n]); err != nil {
			node.count.dnsDropped.Add(uint64(sent))
			sent = 0
		}
		node.count.dns.Add(uint64(min(sent, addressed)))
		if sent > addressed {
			node.count.dnsCname.Add(uint64(sent - addressed))
		}
		// Addressed records are accepted when their one owner took them;
		// broadcasts count once, below.
		accepted += min(sent, addressed)
		st.dns[n] = st.dns[n][:0]
	}
	// A broadcast record is accepted if at least one node took it; with
	// every node down they are lost and counted per node above.
	if len(st.bcast) > 0 {
		anyUp := false
		for _, node := range r.nodes {
			if node.dns.healthy() {
				anyUp = true
				break
			}
		}
		if anyUp {
			accepted += len(st.bcast)
		}
	}
	r.stagePool.Put(st)
	return accepted
}

var _ stream.Ingest = (*Router)(nil)

// Ring returns the router's ring.
func (r *Router) Ring() *Ring { return r.ring }

// Stats snapshots every node's accounting, in ring order.
func (r *Router) Stats() []NodeStats {
	out := make([]NodeStats, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = NodeStats{
			Node:       n.node,
			Flows:      n.count.flows.Load(),
			DNS:        n.count.dns.Load(),
			DNSCname:   n.count.dnsCname.Load(),
			DNSDropped: n.count.dnsDropped.Load(),
			Retry:      n.retry.Stats(),
		}
	}
	return out
}

// Run drives the router: every source feeds the ring until ctx is
// cancelled or all sources finish, then the per-node sinks flush and
// close. Source errors are logged and terminate the run, mirroring the
// correlator's "a dead stream must not leave the process running blind".
func (r *Router) Run(ctx context.Context, sources ...stream.Source) error {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.base.Store(&rctx)

	errc := make(chan error, len(sources))
	var wg sync.WaitGroup
	for _, src := range sources {
		wg.Add(1)
		go func(src stream.Source) {
			defer wg.Done()
			if err := src.Run(rctx, r); err != nil {
				errc <- err
				cancel()
			}
		}(src)
	}
	wg.Wait()
	var srcErr error
	select {
	case srcErr = <-errc:
	default:
	}
	var errs []string
	if srcErr != nil && ctx.Err() == nil {
		errs = append(errs, srcErr.Error())
	}
	for _, n := range r.nodes {
		n.retry.Flush()
		if err := n.retry.Close(); err != nil {
			log.Printf("forward: node %s: %v", n.node.Name, err)
		}
		n.dns.close()
	}
	if len(errs) > 0 {
		return fmt.Errorf("forward: %s", strings.Join(errs, "; "))
	}
	return nil
}

// --- flow path: per-node v9/UDP sink under the retry wrapper -------------

// flowSink encodes correlated-flow batches (only the embedded raw flow is
// populated on this path) into NetFlow v9 datagrams over a connected UDP
// socket. It is the core.Sink a node's RetrySink wraps, so it inherits the
// wrapper's serialization — no internal locking needed — and its buffers
// are reused across batches: after warmup the encode+write path allocates
// nothing. Records are split by address family because the two standard
// templates are family-specific; each family flushes in FlowBatch-sized
// datagrams.
type flowSink struct {
	conn     net.Conn
	sourceID uint32
	seq      uint32
	batch    int
	buf      []byte
	v4, v6   []netflow.FlowRecord
	now      func() time.Time
}

func (s *flowSink) WriteBatch(_ context.Context, batch []core.CorrelatedFlow) error {
	s.v4, s.v6 = s.v4[:0], s.v6[:0]
	for i := range batch {
		fr := &batch[i].Flow
		if fr.SrcIP.Is4() && fr.DstIP.Is4() {
			s.v4 = append(s.v4, *fr)
		} else {
			s.v6 = append(s.v6, *fr)
		}
	}
	if err := s.writeChunks(s.v4, netflow.StandardTemplate()); err != nil {
		return err
	}
	return s.writeChunks(s.v6, netflow.StandardTemplateV6())
}

func (s *flowSink) writeChunks(recs []netflow.FlowRecord, t netflow.Template) error {
	for len(recs) > 0 {
		n := min(len(recs), s.batch)
		chunk := recs[:n]
		recs = recs[n:]
		ts := chunk[0].Timestamp
		if ts.IsZero() {
			ts = s.now()
		}
		var err error
		s.buf, err = netflow.AppendV9(s.buf[:0], netflow.V9Header{
			SequenceNum: s.seq + 1,
			SourceID:    s.sourceID,
			UnixSecs:    uint32(ts.Unix()),
		}, t, chunk)
		if err != nil {
			return err
		}
		if _, err := s.conn.Write(s.buf); err != nil {
			return err
		}
		s.seq++
	}
	return nil
}

func (s *flowSink) Flush() error { return nil }
func (s *flowSink) Close() error { return s.conn.Close() }

// --- DNS path: per-node framed-response TCP sender -----------------------

// dnsSender re-emits DNS records to one node as framed DNS response
// messages: each batch becomes one message whose answers are the records
// verbatim (Name = the record's query, typed address or CNAME target), so
// the worker's FlattenResponseInto reproduces the exact records the router
// saw, re-stamped with the worker's clock. Dialing is lazy and a failed
// send redials once before giving up on the batch.
type dnsSender struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn
	sink   *stream.DNSTCPSink
	msg    dnswire.Message
	id     uint16
	closed bool
	// down marks the last send outcome for the broadcast-accept heuristic.
	down atomic.Bool
}

// maxAnswers bounds answers per message; a frame is capped at 64 KiB and
// DNS names run long, so chunking keeps frames comfortably under it.
const maxAnswers = 64

func (d *dnsSender) send(recs []stream.DNSRecord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("forward: dns sender closed")
	}
	for len(recs) > 0 {
		n := min(len(recs), maxAnswers)
		if err := d.sendMsgLocked(recs[:n]); err != nil {
			d.down.Store(true)
			return err
		}
		recs = recs[n:]
	}
	d.down.Store(false)
	return nil
}

func (d *dnsSender) sendMsgLocked(recs []stream.DNSRecord) error {
	d.id++
	m := &d.msg
	m.Header = dnswire.Header{ID: d.id, Response: true, RCode: dnswire.RCodeNoError}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority, m.Additional = nil, nil
	for i := range recs {
		rec := &recs[i]
		ans := dnswire.Record{
			Name:  rec.Query,
			Type:  rec.RType,
			Class: dnswire.ClassIN,
			TTL:   rec.TTL,
		}
		if rec.Addr.IsValid() {
			ans.Addr = rec.Addr
		} else {
			ans.Target = rec.Answer
		}
		m.Answers = append(m.Answers, ans)
	}
	if err := d.writeLocked(m); err == nil {
		return nil
	}
	// One redial: the worker may have restarted between batches.
	d.resetLocked()
	return d.writeLocked(m)
}

func (d *dnsSender) writeLocked(m *dnswire.Message) error {
	if d.conn == nil {
		conn, err := net.DialTimeout("tcp", d.addr, 5*time.Second)
		if err != nil {
			return err
		}
		d.conn = conn
		d.sink = stream.NewDNSTCPSink(conn)
	}
	if err := d.sink.Send(m); err != nil {
		return err
	}
	return nil
}

func (d *dnsSender) resetLocked() {
	if d.conn != nil {
		d.conn.Close()
		d.conn = nil
		d.sink = nil
	}
}

func (d *dnsSender) healthy() bool { return !d.down.Load() }

func (d *dnsSender) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resetLocked()
	d.closed = true
}

// --- admin: ring status + metrics ----------------------------------------

// ringStatus is the GET /ring wire shape.
type ringStatus struct {
	VNodes int         `json:"vnodes"`
	Nodes  []NodeStats `json:"nodes"`
}

// RingHandler serves the router's cluster view: GET returns the ring spec
// and every node's routed volume, DNS drops, and retry/spill ledger — the
// per-node health and backpressure surface.
func (r *Router) RingHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ringStatus{VNodes: r.ring.VNodes(), Nodes: r.Stats()})
	})
}

// MetricsContributor exports per-node fanout counters for /metrics,
// matching the daemon's per-sink RetrySink metric names so dashboards see
// one ledger shape everywhere.
func (r *Router) MetricsContributor() func(*metrics.PromWriter) {
	return func(p *metrics.PromWriter) {
		for _, st := range r.Stats() {
			lbl := map[string]string{"node": st.Node.Name}
			p.Counter("flowdns_forward_flows_total", "Flow records routed to the node.", lbl, st.Flows)
			p.Counter("flowdns_forward_dns_total", "Addressed DNS records routed to the node.", lbl, st.DNS)
			p.Counter("flowdns_forward_dns_cname_total", "CNAME records broadcast to the node.", lbl, st.DNSCname)
			p.Counter("flowdns_forward_dns_dropped_total", "DNS records lost after send+redial failed.", lbl, st.DNSDropped)
			p.Counter("flowdns_retry_delivered_total", "Records the node's flow socket accepted.", lbl, st.Retry.Delivered)
			p.Counter("flowdns_retry_spilled_total", "Records diverted to the node's spill queue.", lbl, st.Retry.Spilled)
			p.Counter("flowdns_retry_replayed_total", "Spilled records later delivered.", lbl, st.Retry.Replayed)
			p.Counter("flowdns_retry_dropped_total", "Records dropped against full spill bounds.", lbl, st.Retry.Dropped)
			p.GaugeInt("flowdns_retry_spill_depth", "Backlogged records (memory + disk).", lbl, int64(st.Retry.SpillDepth))
		}
	}
}
