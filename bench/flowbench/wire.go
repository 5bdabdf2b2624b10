package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/bench/refmodel"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/ipfix"
	"repro/internal/netflow"
	"repro/internal/stream"
	"repro/internal/workload"
)

// wireEpoch anchors every generated record timestamp, so the same seed gives
// byte-identical wire regardless of when the benchmark runs. Flow timestamps
// only feed the output column; the SUT stamps DNS records with its own wall
// clock on receipt.
var wireEpoch = time.Unix(1_700_000_000, 0)

// dgram is one pre-encoded flow export datagram. Every record's packet
// counter is a 32-bit stamp slot the sender overwrites with the send time.
type dgram struct {
	b       []byte
	records int
	stamp0  int // offset of the first record's stamp slot
	stride  int // record length
	// sampled lists the oracle-sampled source IPs in this datagram (with
	// repeats), for the sent-per-IP count of a partial ring pass.
	sampled []string
}

// stamp writes v into every record's packet counter.
func (d *dgram) stamp(v uint32) {
	for i, o := 0, d.stamp0; i < d.records; i, o = i+1, o+d.stride {
		binary.BigEndian.PutUint32(d.b[o:], v)
	}
}

// chunk is a run of length-prefixed DNS response messages written with one
// TCP write.
type chunk struct {
	b       []byte
	records int
	cnames  int // of records; a cluster router broadcasts these to every worker
}

// wire is everything a run sends, plus the oracle built from the same
// records.
type wire struct {
	sp             spec
	preload        []chunk
	preloadRecords int
	preloadCNAMEs  int
	dns            []chunk
	dnsRecords     int // per ring pass
	flows          []dgram
	flowRecords    int                  // per ring pass
	v4flows        []netflow.FlowRecord // one ring pass, IPv4 only (trace mode baseline input)
	oracle         *oracle
}

// oracle answers "which names may this source IP resolve to" from two
// reference models: pre holds the warm-up set only, all holds warm-up plus
// one full ring pass.
type oracle struct {
	pre, all *refmodel.Model
	perPass  map[string]int // sampled source IP -> flows per ring pass
}

// sampledIP reports whether the source IP (in text form, as the output rows
// carry it) is one of the 1/oracleShare the oracle checks by name.
func sampledIP(ip []byte) bool { return fnv32a(ip)%oracleShare == 0 }

// admissible returns the names a row for ip may carry. NULL is admissible
// unless the warm-up set announced ip (only then is the announcement
// guaranteed to precede every flow). A service whose whole chain is in the
// warm-up set and within the chain limit resolves to exactly its service
// name; otherwise any name along the chain is accepted, because ring-pass
// CNAMEs race the flows and memoisation extends over-long walks.
func (o *oracle) admissible(ip string) map[string]bool {
	out := map[string]bool{}
	if !o.pre.Has(ip, wireEpoch) {
		out["NULL"] = true
	}
	for _, edge := range o.all.Announced(ip, wireEpoch) {
		full := o.all.Walk(edge, wireEpoch)
		pre := o.pre.Walk(edge, wireEpoch)
		if len(pre) == len(full) && len(full)-1 <= refmodel.ChainLimit {
			out[full[len(full)-1]] = true
			continue
		}
		for _, n := range full {
			out[n] = true
		}
	}
	return out
}

func (o *oracle) ingest(recs []stream.DNSRecord, preload bool) {
	modelIngest(o.all, recs)
	if preload {
		modelIngest(o.pre, recs)
	}
}

// modelIngest feeds decoded DNS records to a reference model.
func modelIngest(m *refmodel.Model, recs []stream.DNSRecord) {
	for i := range recs {
		r := &recs[i]
		if r.RType == dnswire.TypeCNAME {
			m.AddCNAME(wireEpoch, r.Query, r.Answer, r.TTL)
		} else {
			m.AddAddr(wireEpoch, r.Addr.String(), r.Query, r.TTL)
		}
	}
}

// encodeEvent frames one query event's records as a DNS response message.
// Events whose names cannot be encoded (the universe's over-long malformed
// labels) return nil and are skipped by callers.
func encodeEvent(dst []byte, recs []stream.DNSRecord) []byte {
	m := dnswire.Message{
		Header:    dnswire.Header{Response: true, RecursionDesired: true, RecursionAvailable: true},
		Questions: []dnswire.Question{{Name: recs[0].Query, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	for i := range recs {
		r := dnswire.Record{Name: recs[i].Query, Type: recs[i].RType, Class: dnswire.ClassIN, TTL: recs[i].TTL}
		if recs[i].RType == dnswire.TypeCNAME {
			r.Target = recs[i].Answer
		} else {
			r.Addr = recs[i].Addr
		}
		m.Answers = append(m.Answers, r)
	}
	start := len(dst)
	dst = append(dst, 0, 0)
	out, err := dnswire.AppendMessage(dst, &m)
	if err != nil || len(out)-start-2 > 0xFFFF {
		return nil
	}
	binary.BigEndian.PutUint16(out[start:], uint16(len(out)-start-2))
	return out
}

// dnsBuilder accumulates query events into chunks of eventsPerChunk.
type dnsBuilder struct {
	o              *oracle
	preload        bool
	eventsPerChunk int
	chunks         []chunk
	cur            chunk
	events         int
	records        int
	cnames         int
}

func (b *dnsBuilder) add(recs []stream.DNSRecord) {
	if len(recs) == 0 {
		return
	}
	out := encodeEvent(b.cur.b, recs)
	if out == nil {
		return
	}
	b.cur.b = out
	b.cur.records += len(recs)
	b.records += len(recs)
	for i := range recs {
		if recs[i].RType == dnswire.TypeCNAME {
			b.cur.cnames++
			b.cnames++
		}
	}
	b.o.ingest(recs, b.preload)
	if b.events++; b.events%b.eventsPerChunk == 0 {
		b.flush()
	}
}

func (b *dnsBuilder) flush() {
	if b.cur.records > 0 {
		b.chunks = append(b.chunks, b.cur)
		b.cur = chunk{}
	}
}

// buildWire generates the warm-up set, the DNS ring and the flow ring for
// one workload from seed. Generation walks the simulated clock the way a
// live feed would — each step emits its DNS events first, then its flows —
// so flows keep following recent resolutions.
func buildWire(sp spec, seed int64, keepFlows bool) (*wire, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = universeSeed
	cfg.NumServices = sp.Services
	cfg.ChurnRate = sp.Churn
	// Client DNS-port flows pick their resolver from a map-ordered list
	// (resolvers.Set.Addrs), which differs between processes; without them
	// the same seed gives byte-identical wire.
	cfg.DNSPortTrafficFraction = 0
	u := workload.NewUniverse(cfg)
	g := workload.NewGenerator(u, seed)

	w := &wire{sp: sp, oracle: &oracle{
		pre:     refmodel.New(core.DefaultAClearUpInterval),
		all:     refmodel.New(core.DefaultAClearUpInterval),
		perPass: map[string]int{},
	}}

	// Warm-up set: the popularity head once each (so hot services resolve
	// from the first flow on), then Zipf-drawn events.
	pre := &dnsBuilder{o: w.oracle, preload: true, eventsPerChunk: 32}
	head := min(sp.PreloadEvents/4, len(u.Services))
	for i := 0; i < head; i++ {
		_, idx := g.RankService(i)
		recs, _ := g.SessionFor(idx, wireEpoch, 0)
		pre.add(recs)
	}
	for i := head; i < sp.PreloadEvents; i++ {
		pre.add(g.DNSQueryEvent(wireEpoch))
	}
	pre.flush()
	w.preload, w.preloadRecords, w.preloadCNAMEs = pre.chunks, pre.records, pre.cnames

	dnsPerFlow := sp.DNSPerFlow
	if sp.DNSRate > 0 {
		dnsPerFlow = float64(sp.RingDNS) / float64(sp.RingFlows)
	}
	ring := &dnsBuilder{o: w.oracle, eventsPerChunk: 4}
	if sp.DNSRate > 0 {
		ring.eventsPerChunk = 16
	}
	enc := newFlowEncoder(sp, w)
	const flowsPerStep = 240
	debt := 0.0
	for step := 0; w.flowRecords < sp.RingFlows; step++ {
		ts := wireEpoch.Add(time.Duration(step) * time.Millisecond)
		for debt += flowsPerStep * dnsPerFlow; debt > 0; {
			recs := g.DNSQueryEvent(ts)
			debt -= float64(len(recs))
			ring.add(recs)
		}
		for _, fr := range g.FlowBatch(ts, flowsPerStep) {
			fr.Packets = 0
			v4 := fr.SrcIP.Is4() && fr.DstIP.Is4()
			if fr.SrcIP.Is4() != fr.DstIP.Is4() || (sp.Proto == "v5" && !v4) {
				// v5 cannot carry IPv6, and no exporter mixes families in
				// one record (the generator's reverse flows can).
				continue
			}
			if err := enc.add(fr); err != nil {
				return nil, err
			}
			if keepFlows && v4 {
				w.v4flows = append(w.v4flows, fr)
			}
		}
	}
	if err := enc.flush(); err != nil {
		return nil, err
	}
	ring.flush()
	w.dns, w.dnsRecords = ring.chunks, ring.records
	if len(w.dns) == 0 || len(w.flows) == 0 {
		return nil, fmt.Errorf("flowbench: workload %s generated an empty ring", sp.Name)
	}
	return w, nil
}

// flowEncoder packs flow records into datagrams in the workload's export
// format and records the oracle's per-IP sent counts.
type flowEncoder struct {
	sp      spec
	w       *wire
	pending [2][]netflow.FlowRecord // by family: 0 = IPv4, 1 = IPv6
	dgrams  int                     // v9ipfix: datagram counter (exporter rotation, 1/2 alternation)
	sentBy  map[[2]int]int          // v9ipfix: datagrams sent per (exporter, family)
}

func newFlowEncoder(sp spec, w *wire) *flowEncoder {
	return &flowEncoder{sp: sp, w: w, sentBy: map[[2]int]int{}}
}

func (e *flowEncoder) want() int {
	if e.sp.Proto == "v5" {
		return e.sp.PerDgram
	}
	return 1 + e.dgrams%2
}

func (e *flowEncoder) add(fr netflow.FlowRecord) error {
	fam := 0
	if fr.SrcIP.Is6() {
		fam = 1
	}
	e.pending[fam] = append(e.pending[fam], fr)
	if len(e.pending[fam]) >= e.want() {
		return e.emit(fam)
	}
	return nil
}

func (e *flowEncoder) flush() error {
	for fam := range e.pending {
		if len(e.pending[fam]) > 0 {
			if err := e.emit(fam); err != nil {
				return err
			}
		}
	}
	return nil
}

const (
	v5HeaderLen, v5RecordLen, v5PktsOff = 24, 48, 16
	// Standard v9/IPFIX templates: addresses, ports, proto, then the 8-byte
	// packet counter whose low word is the stamp slot.
	tmplSetLen            = 4 + 4 + 8*4
	v9HeaderLen           = 20
	ipfixHeaderLen        = 16
	rec4Len, rec4StampOff = 37, 4 + 4 + 2 + 2 + 1 + 4
	rec6Len, rec6StampOff = 61, 16 + 16 + 2 + 2 + 1 + 4
)

func (e *flowEncoder) emit(fam int) error {
	recs := e.pending[fam]
	e.pending[fam] = recs[:0]
	d := dgram{records: len(recs)}
	ts := recs[0].Timestamp
	switch e.sp.Proto {
	case "v5":
		wire := make([]netflow.V5Record, len(recs))
		for i := range recs {
			r, err := netflow.FromFlowRecord(recs[i])
			if err != nil {
				return err
			}
			wire[i] = r
		}
		b, err := netflow.EncodeV5(netflow.V5Header{
			UnixSecs: uint32(ts.Unix()), UnixNsecs: uint32(ts.Nanosecond()),
			FlowSequence: uint32(e.w.flowRecords),
		}, wire)
		if err != nil {
			return err
		}
		d.b, d.stamp0, d.stride = b, v5HeaderLen+v5PktsOff, v5RecordLen
	default:
		exporter := e.dgrams % e.sp.SourceIDs
		e.dgrams++
		n := e.sentBy[[2]int{exporter, fam}]
		e.sentBy[[2]int{exporter, fam}] = n + 1
		withTemplate := n%e.sp.TemplEach == 0
		hdrLen := v9HeaderLen
		var b []byte
		var err error
		if exporter < e.sp.SourceIDs/2 {
			t := netflow.StandardTemplate()
			if fam == 1 {
				t = netflow.StandardTemplateV6()
			}
			b, err = netflow.EncodeV9(netflow.V9Header{
				UnixSecs: uint32(ts.Unix()), SequenceNum: uint32(n), SourceID: uint32(exporter),
			}, t, recs)
			if err == nil && !withTemplate {
				b = append(b[:hdrLen], b[hdrLen+tmplSetLen:]...)
				binary.BigEndian.PutUint16(b[2:], uint16(len(recs)))
			}
		} else {
			hdrLen = ipfixHeaderLen
			t := ipfix.StandardTemplate()
			if fam == 1 {
				t = ipfix.StandardTemplateV6()
			}
			b, err = ipfix.Encode(ipfix.Header{
				ExportTime: uint32(ts.Unix()), SequenceNumber: uint32(n), DomainID: uint32(exporter),
			}, t, recs)
			if err == nil && !withTemplate {
				b = append(b[:hdrLen], b[hdrLen+tmplSetLen:]...)
				binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
			}
		}
		if err != nil {
			return err
		}
		d.b = b
		d.stamp0, d.stride = hdrLen+4+rec4StampOff, rec4Len
		if fam == 1 {
			d.stamp0, d.stride = hdrLen+4+rec6StampOff, rec6Len
		}
		if withTemplate {
			d.stamp0 += tmplSetLen
		}
	}
	var text [64]byte
	for i := range recs {
		ip := recs[i].SrcIP.AppendTo(text[:0])
		if sampledIP(ip) {
			s := string(ip)
			d.sampled = append(d.sampled, s)
			e.w.oracle.perPass[s]++
		}
	}
	e.w.flows = append(e.w.flows, d)
	e.w.flowRecords += len(recs)
	return nil
}

// sentPerIP returns how many flows were sent per sampled source IP after
// dgrams datagrams (full ring passes plus a prefix).
func (w *wire) sentPerIP(dgrams int) map[string]int {
	passes, rest := dgrams/len(w.flows), dgrams%len(w.flows)
	out := make(map[string]int, len(w.oracle.perPass))
	for ip, n := range w.oracle.perPass {
		out[ip] = n * passes
	}
	for i := 0; i < rest; i++ {
		for _, ip := range w.flows[i].sampled {
			out[ip]++
		}
	}
	return out
}
