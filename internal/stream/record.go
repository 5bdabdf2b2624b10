// Package stream provides the live-stream plumbing between the network and
// the FlowDNS correlator.
//
// The paper's deployment receives DNS cache misses "from the ISP resolvers
// to our collectors via TCP" and NetFlow exports on UDP, each stream with
// "an internal buffer to be used in case the reading speed is less than
// their actual rate. If that buffer overflows, the streams start to drop
// data." This package reproduces that contract:
//
//   - DNSRecord is the flattened record the FillUp stage consumes
//     (timestamp, query, rtype, ttl, answer);
//   - DNSTCPSource / DNSTCPSink speak length-prefixed DNS messages over TCP
//     (RFC 1035 §4.2.2 framing) and flatten responses into DNSRecords;
//   - FlowUDPSource / FlowUDPSink speak NetFlow v5/v9 datagrams;
//   - every source feeds the pipeline through the Ingest façade, whose
//     non-blocking offers surface the paper's "loss on the streams" as
//     rejected records when a stage buffer overflows.
package stream

import (
	"net/netip"
	"time"

	"repro/internal/dnswire"
)

// DNSRecord is one flattened DNS answer as FlowDNS consumes it. Per §2 the
// DNS stream carries "timestamp,..., [name; rtype; ttl; answer]". In every
// FlowDNS hashmap "the key is the answer section, and the value is the
// query".
//
// The answer is carried typed: for an A/AAAA record Addr holds the address
// exactly as the wire decoder produced it, so the FillUp stage builds its
// binary IP key without ever formatting or re-parsing an address string.
// Answer is the string form — the canonical name for a CNAME record, and
// an optional textual address for A/AAAA records built away from the
// decoder (capture files, hand-written tests). When both are present, Addr
// wins; producers that only have a string should parse it once at build
// time (as ReadDNSFile does) rather than leaving the parse to every ingest.
type DNSRecord struct {
	Timestamp time.Time
	Query     string
	RType     dnswire.Type
	TTL       uint32
	Answer    string
	// Addr is the typed A/AAAA answer; invalid (the zero Addr) for CNAME
	// records and for string-only producers.
	Addr netip.Addr
}

// IsValid implements the paper's §3.2 step (2) filter: only well-formed
// responses of the types FlowDNS stores pass. An A/AAAA record may carry
// its answer typed (Addr), textual (Answer), or both.
func (r *DNSRecord) IsValid() bool {
	if r.Timestamp.IsZero() || r.Query == "" {
		return false
	}
	switch r.RType {
	case dnswire.TypeA, dnswire.TypeAAAA:
		return r.Addr.IsValid() || r.Answer != ""
	case dnswire.TypeCNAME:
		return r.Answer != ""
	default:
		return false
	}
}

// TypeAnswerAddr materializes the typed address of a string-only A/AAAA
// record in place: one parse at offer time instead of one per ingest.
// The correlator's lanes and the cluster router both key on the
// typed address, so calling this before either makes records for the same
// IP route alike no matter which producer built them. Unparsable answers
// are left as-is (the §3.2 filter rejects them at ingest).
func (r *DNSRecord) TypeAnswerAddr() {
	if r.Addr.IsValid() || r.Answer == "" {
		return
	}
	if r.RType == dnswire.TypeA || r.RType == dnswire.TypeAAAA {
		if addr, err := netip.ParseAddr(r.Answer); err == nil {
			r.Addr = addr
		}
	}
}

// AnswerString returns the answer's presentation form: the Answer string
// when present, otherwise the typed address formatted. Only the offline
// writers (capture persistence) use this; the live fill path never needs
// the string form.
func (r *DNSRecord) AnswerString() string {
	if r.Answer != "" {
		return r.Answer
	}
	if r.Addr.IsValid() {
		return r.Addr.String()
	}
	return ""
}

// FlattenResponseInto converts a decoded DNS response message into the
// DNSRecords FlowDNS stores, appending them to dst. Non-response messages
// and non-NOERROR rcodes yield nothing; answer records of types other than
// A/AAAA/CNAME are skipped. ts is the stream-assigned receive timestamp.
//
// A/AAAA answers stay typed: the record carries the decoder's netip.Addr
// untouched, with no Addr.String() round-trip (the fill path consumes the
// binary form directly). CNAME flattening note: in a DNS message a CNAME
// answer has Name = the alias that was queried and Target = the canonical
// name. FlowDNS's NAME-CNAME map is keyed by answer (canonical name) with
// the query (alias) as value, so lookups can walk CDN names back toward
// the service name.
//
// A source draining one connection reuses a single record buffer for every
// frame (pass dst[:0]); one-shot callers pass nil. The appended records do
// not alias m or dst's previous contents beyond the reused backing array;
// they are safe to hand to Ingest.OfferDNSBatch, which copies records into
// the stage queue.
func FlattenResponseInto(dst []DNSRecord, m *dnswire.Message, ts time.Time) []DNSRecord {
	if m == nil || !m.Header.Response || m.Header.RCode != dnswire.RCodeNoError {
		return dst
	}
	for i := range m.Answers {
		a := &m.Answers[i]
		switch a.Type {
		case dnswire.TypeA, dnswire.TypeAAAA:
			if !a.Addr.IsValid() {
				continue
			}
			dst = append(dst, DNSRecord{
				Timestamp: ts,
				Query:     a.Name,
				RType:     a.Type,
				TTL:       a.TTL,
				Addr:      a.Addr,
			})
		case dnswire.TypeCNAME:
			if a.Target == "" {
				continue
			}
			dst = append(dst, DNSRecord{
				Timestamp: ts,
				Query:     a.Name,
				RType:     a.Type,
				TTL:       a.TTL,
				Answer:    a.Target,
			})
		}
	}
	return dst
}
