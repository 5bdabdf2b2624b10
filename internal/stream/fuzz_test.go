package stream

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// FuzzFlattenResponseInto asserts flattening is unaffected by buffer
// reuse: for any decodable message, flattening into a freshly poisoned
// reused buffer yields the same records as flattening into nil, twice in a
// row (the TCP source reuses one buffer per frame), and
// every produced record passes the §3.2 filter invariants — A/AAAA records
// carry a valid typed address matching their type, CNAME records a
// non-empty target.
func FuzzFlattenResponseInto(f *testing.F) {
	mustEncode := func(m *dnswire.Message) []byte {
		b, err := dnswire.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// Mixed-section response: CNAME chain, A, AAAA, TXT (skipped), and an
	// unknown type (skipped) — the shape the fill path sees from real
	// resolvers.
	mixed := mustEncode(&dnswire.Message{
		Header: dnswire.Header{ID: 1, Response: true},
		Questions: []dnswire.Question{
			{Name: "svc.example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN},
		},
		Answers: []dnswire.Record{
			{Name: "svc.example.com", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300, Target: "edge.cdn.example"},
			{Name: "edge.cdn.example", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
				Addr: netip.AddrFrom4([4]byte{198, 51, 100, 7})},
			{Name: "edge.cdn.example", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN, TTL: 60,
				Addr: netip.MustParseAddr("2001:db8::7")},
			{Name: "edge.cdn.example", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60, TXT: []string{"v=spf1"}},
			{Name: "edge.cdn.example", Type: dnswire.Type(4242), Class: dnswire.ClassIN, TTL: 60, Raw: []byte{1, 2, 3}},
		},
	})
	f.Add(mixed)
	// NXDOMAIN and plain-query messages flatten to nothing.
	f.Add(mustEncode(&dnswire.Message{
		Header:    dnswire.Header{ID: 2, Response: true, RCode: dnswire.RCodeNXDomain},
		Questions: []dnswire.Question{{Name: "gone.example", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}))
	f.Add(mustEncode(&dnswire.Message{
		Header:    dnswire.Header{ID: 3},
		Questions: []dnswire.Question{{Name: "asked.example", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN}},
	}))
	f.Add(mixed[:12])
	f.Add([]byte{})

	ts := time.Unix(1653475200, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := dnswire.Decode(data)
		if err != nil {
			return
		}
		fresh := FlattenResponseInto(nil, m, ts)

		// Reused buffer, poisoned: stale records from a previous frame must
		// never leak through or corrupt the new flatten.
		dst := make([]DNSRecord, 0, 4)
		for i := 0; i < 3; i++ {
			dst = append(dst, DNSRecord{Query: "stale.example", Answer: "203.0.113.9",
				RType: dnswire.TypeA, Timestamp: ts, TTL: 999})
		}
		got := FlattenResponseInto(dst[:0], m, ts)
		if len(got) != len(fresh) || (len(fresh) > 0 && !reflect.DeepEqual(got, fresh)) {
			t.Fatalf("into(reused) = %+v, fresh = %+v", got, fresh)
		}
		// Second flatten into the same buffer: the TCP source's steady
		// state. Aliasing the previous result's backing array must not
		// change the outcome.
		again := FlattenResponseInto(got[:0], m, ts)
		if len(again) != len(fresh) || (len(fresh) > 0 && !reflect.DeepEqual(again, fresh)) {
			t.Fatalf("into(again) = %+v, fresh = %+v", again, fresh)
		}

		for i := range fresh {
			r := &fresh[i]
			if !r.IsValid() {
				t.Fatalf("flattened record %d invalid: %+v", i, r)
			}
			switch r.RType {
			case dnswire.TypeA:
				if !r.Addr.Is4() && !r.Addr.Is4In6() {
					t.Fatalf("A record %d with non-IPv4 addr: %+v", i, r)
				}
			case dnswire.TypeAAAA:
				if !r.Addr.IsValid() {
					t.Fatalf("AAAA record %d without addr: %+v", i, r)
				}
			case dnswire.TypeCNAME:
				if r.Answer == "" {
					t.Fatalf("CNAME record %d without target: %+v", i, r)
				}
			default:
				t.Fatalf("record %d of unexpected type %v", i, r.RType)
			}
		}
	})
}
