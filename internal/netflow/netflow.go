// Package netflow implements the NetFlow v5 and v9 wire codecs and the
// template engine IPFIX shares with v9.
//
// FlowDNS consumes "Netflow records captured at the network ingress
// interfaces" (paper §2); each record carries at least srcIP, dstIP, a
// timestamp, and packet/byte counters. This package provides:
//
//   - a complete NetFlow v5 encoder/decoder (fixed 24-byte header,
//     48-byte records, RFC-less but ubiquitous Cisco format);
//   - the template engine NetFlow v9 (RFC 3954) and IPFIX (RFC 7011)
//     share: template records, a per-exporter template cache, the
//     template-set parser and data-set walker, one field table and one
//     record encoder, with a Dialect describing where the two differ;
//   - the NetFlow v9 dialect over that engine (EncodeV9, AppendV9,
//     DecodeV9), the format actually exported by ISP-grade routers;
//     internal/ipfix holds the IPFIX one;
//   - the neutral FlowRecord type the correlator consumes, so that — as the
//     paper notes — "the system is not bound to NetFlow data and can be
//     adapted to use other data formats containing IP addresses and
//     timestamps".
package netflow

import (
	"net/netip"
	"time"
)

// FlowRecord is the format-neutral flow observation handed to the
// correlator. Only the fields FlowDNS uses are first-class; everything else
// stays in the wire structs.
type FlowRecord struct {
	// Timestamp is when the exporter emitted the record. Clear-up intervals
	// in the correlator advance on these timestamps, so offline replays
	// rotate exactly like live runs.
	Timestamp time.Time
	SrcIP     netip.Addr
	DstIP     netip.Addr
	SrcPort   uint16
	DstPort   uint16
	Proto     uint8
	Packets   uint64
	Bytes     uint64
}

// IsValid reports whether the record carries the fields the correlator
// needs. This is the paper's §3.3 step (2) "filter to check if they are
// valid Netflow records".
func (r *FlowRecord) IsValid() bool {
	return r.SrcIP.IsValid() && r.DstIP.IsValid() && !r.Timestamp.IsZero()
}

// Protocol numbers used across the workload and experiments.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Well-known ports for the coverage analysis (§4): DNS and DNS-over-TLS.
const (
	PortDNS = 53
	PortDoT = 853
)
