// Package pcaplite models miniature packet captures for the paper's §4
// accuracy experiment.
//
// The authors "browse two different websites and capture the traffic",
// extract the DNS packets as the DNS stream, and build Netflow records from
// all traffic packets. Without access to a browser or live capture, this
// package synthesizes the same trace: real DNS response messages (encoded
// with the dnswire codec, so the full wire path is exercised) followed by
// data packets between the website's IP and the client, each labelled with
// the ground-truth website so correlation output can be graded.
package pcaplite

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// Packet is one captured packet. DNS responses carry their wire bytes in
// Payload; data packets carry the ground-truth website in Truth.
type Packet struct {
	Timestamp time.Time
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstPort   uint16
	Proto     uint8
	Length    int
	Payload   []byte // DNS message bytes when IsDNS
	IsDNS     bool
	Truth     string // ground-truth website for data packets
}

// Trace is an ordered packet capture.
type Trace struct {
	Packets  []Packet
	sessions uint16
}

// Website describes one browsed site for trace synthesis.
type Website struct {
	Domain string
	Addr   netip.Addr
	// DataPackets is the number of HTTP-ish data packets to emit.
	DataPackets int
	// BytesPerPacket sizes each data packet.
	BytesPerPacket int
}

// Browse appends one browsing session to the trace: the DNS response the
// client's resolver returned, then the data transfer from the website to
// the client over a fresh client-side port (each browse is its own TCP
// connection). It returns an error if the DNS message cannot be encoded.
func (t *Trace) Browse(ts time.Time, w Website, client netip.Addr) error {
	if w.DataPackets <= 0 {
		w.DataPackets = 10
	}
	if w.BytesPerPacket <= 0 {
		w.BytesPerPacket = 1400
	}
	t.sessions++
	clientPort := 43200 + t.sessions
	rt := dnswire.TypeA
	if w.Addr.Is6() {
		rt = dnswire.TypeAAAA
	}
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID: uint16(len(t.Packets) + 1), Response: true,
			RecursionDesired: true, RecursionAvailable: true,
		},
		Questions: []dnswire.Question{{Name: w.Domain, Type: rt, Class: dnswire.ClassIN}},
		Answers: []dnswire.Record{{
			Name: w.Domain, Type: rt, Class: dnswire.ClassIN, TTL: 300, Addr: w.Addr,
		}},
	}
	wire, err := dnswire.Encode(resp)
	if err != nil {
		return fmt.Errorf("pcaplite: encoding response for %s: %w", w.Domain, err)
	}
	resolver := netip.AddrFrom4([4]byte{10, 255, 0, 1})
	t.Packets = append(t.Packets, Packet{
		Timestamp: ts, SrcIP: resolver, DstIP: client,
		SrcPort: netflow.PortDNS, DstPort: clientPort,
		Proto: netflow.ProtoUDP, Length: len(wire), Payload: wire, IsDNS: true,
	})
	for i := 0; i < w.DataPackets; i++ {
		t.Packets = append(t.Packets, Packet{
			Timestamp: ts.Add(time.Duration(i+1) * 10 * time.Millisecond),
			SrcIP:     w.Addr, DstIP: client,
			SrcPort: 443, DstPort: clientPort,
			Proto: netflow.ProtoTCP, Length: w.BytesPerPacket,
			Truth: w.Domain,
		})
	}
	return nil
}

// DNSRecords extracts and flattens the DNS responses — "we extract the DNS
// packets from the captured traffic and feed them to FlowDNS as the DNS
// stream".
func (t *Trace) DNSRecords() ([]stream.DNSRecord, error) {
	var out []stream.DNSRecord
	for i := range t.Packets {
		p := &t.Packets[i]
		if !p.IsDNS {
			continue
		}
		msg, err := dnswire.Decode(p.Payload)
		if err != nil {
			return nil, fmt.Errorf("pcaplite: packet %d: %w", i, err)
		}
		out = stream.FlattenResponseInto(out, msg, p.Timestamp)
	}
	return out, nil
}

// FlowRecords aggregates the data packets into flow records, one per
// (src, dst, srcPort, dstPort, proto) tuple — "we then create Netflow
// records from all traffic packets".
func (t *Trace) FlowRecords() []netflow.FlowRecord {
	type key struct {
		src, dst     netip.Addr
		sport, dport uint16
		proto        uint8
	}
	order := make([]key, 0)
	agg := make(map[key]*netflow.FlowRecord)
	for i := range t.Packets {
		p := &t.Packets[i]
		if p.IsDNS {
			continue
		}
		k := key{p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto}
		fr, ok := agg[k]
		if !ok {
			fr = &netflow.FlowRecord{
				Timestamp: p.Timestamp,
				SrcIP:     p.SrcIP, DstIP: p.DstIP,
				SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto,
			}
			agg[k] = fr
			order = append(order, k)
		}
		fr.Packets++
		fr.Bytes += uint64(p.Length)
	}
	out := make([]netflow.FlowRecord, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out
}

// Truth returns the ground-truth website for a flow's source address, or ""
// when the trace never labelled it. When websites share an address, use
// TruthFor with the full flow instead.
func (t *Trace) Truth(src netip.Addr) string {
	for i := range t.Packets {
		p := &t.Packets[i]
		if !p.IsDNS && p.SrcIP == src {
			return p.Truth
		}
	}
	return ""
}

// TruthFor returns the ground-truth website of the session a flow record
// aggregates, matching the full 5-tuple.
func (t *Trace) TruthFor(fr netflow.FlowRecord) string {
	for i := range t.Packets {
		p := &t.Packets[i]
		if p.IsDNS {
			continue
		}
		if p.SrcIP == fr.SrcIP && p.DstIP == fr.DstIP &&
			p.SrcPort == fr.SrcPort && p.DstPort == fr.DstPort && p.Proto == fr.Proto {
			return p.Truth
		}
	}
	return ""
}
