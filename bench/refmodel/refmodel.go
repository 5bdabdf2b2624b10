// Package refmodel is the benchmark's independent reference: a
// single-threaded, deliberately naive FlowDNS correlator in the shape of a
// hobby NetFlow collector (binary.Read into structs, string IPs, one
// mutex-guarded map, per-entry expiry). It serves two purposes:
//
//   - oracle: the set of names a source IP may legitimately resolve to,
//     computed from the same wire bytes the system under test receives;
//   - baseline: the ns-per-flow denominator every optimisation in the tree
//     is measured against (V5Datagram).
//
// It shares no code with internal/core, internal/cmap or internal/netflow.
package refmodel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ChainLimit is the paper's CNAME walk bound (§3.3: six hops cover >99 %).
const ChainLimit = 6

// Model is the naive correlator. MinLifetime models FlowDNS's clear-up
// approximation of TTLs: a record is kept for max(TTL, MinLifetime), because
// the real system only forgets on clear-up interval boundaries.
type Model struct {
	MinLifetime time.Duration

	mu     sync.Mutex
	ipName map[string][]entry // every announcement, oldest first
	cname  map[string]entry   // canonical name -> alias that points at it
}

type entry struct {
	value   string
	expires time.Time
}

// New returns an empty model.
func New(minLifetime time.Duration) *Model {
	return &Model{MinLifetime: minLifetime, ipName: map[string][]entry{}, cname: map[string]entry{}}
}

func (m *Model) expiry(ts time.Time, ttl uint32) time.Time {
	life := time.Duration(ttl) * time.Second
	if life < m.MinLifetime {
		life = m.MinLifetime
	}
	return ts.Add(life)
}

// AddAddr records an A/AAAA answer: ip was announced for name at ts.
func (m *Model) AddAddr(ts time.Time, ip, name string, ttl uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ipName[ip] = append(m.ipName[ip], entry{name, m.expiry(ts, ttl)})
}

// AddCNAME records alias -> canonical; lookups walk it backwards.
func (m *Model) AddCNAME(ts time.Time, alias, canonical string, ttl uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cname[canonical] = entry{alias, m.expiry(ts, ttl)}
}

// Has reports whether ip has a live announcement at now.
func (m *Model) Has(ip string, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.ipName[ip] {
		if !now.After(e.expires) {
			return true
		}
	}
	return false
}

// Correlate is Algorithm 2: the latest live announcement of ip, walked back
// through at most ChainLimit CNAME hops. ok is false on a miss (NULL row).
func (m *Model) Correlate(ip string, now time.Time) (name string, hops int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	es := m.ipName[ip]
	for i := len(es) - 1; i >= 0 && !ok; i-- {
		if !now.After(es[i].expires) {
			name, ok = es[i].value, true
		}
	}
	if !ok {
		return "", 0, false
	}
	for hops < ChainLimit {
		next, found := m.cname[name]
		if !found || now.After(next.expires) || next.value == name {
			break
		}
		name = next.value
		hops++
	}
	return name, hops, true
}

// Walk returns the full alias chain starting at name (name first, the
// original service name last), ignoring the chain limit; loops are cut at 64.
func (m *Model) Walk(name string, now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	chain := []string{name}
	for len(chain) < 64 {
		next, found := m.cname[name]
		if !found || now.After(next.expires) || next.value == name {
			break
		}
		name = next.value
		chain = append(chain, name)
	}
	return chain
}

// Announced returns every distinct name ip was announced for and is still
// live at now, oldest first.
func (m *Model) Announced(ip string, now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	seen := map[string]bool{}
	for _, e := range m.ipName[ip] {
		if !now.After(e.expires) && !seen[e.value] {
			seen[e.value] = true
			out = append(out, e.value)
		}
	}
	return out
}

// v5Header and v5Record are the NetFlow v5 wire structs, read whole with
// binary.Read the way the naive collectors do.
type v5Header struct {
	Version, Count            uint16
	Uptime, UnixSec, UnixNsec uint32
	Sequence                  uint32
	EngineType, EngineID      uint8
	Sampling                  uint16
}

type v5Record struct {
	Src, Dst, NextHop       uint32
	InIf, OutIf             uint16
	Packets, Octets         uint32
	First, Last             uint32
	SrcPort, DstPort        uint16
	_, TCPFlags, Proto, TOS uint8
	SrcAS, DstAS            uint16
	SrcMask, DstMask        uint8
	_                       uint16
}

func ipString(a uint32) string {
	return net.IPv4(byte(a>>24), byte(a>>16), byte(a>>8), byte(a)).String()
}

// V5Datagram decodes one NetFlow v5 export, correlates every record and
// writes one TSV row per record to w. It returns the record count.
func (m *Model) V5Datagram(pkt []byte, w io.Writer) (int, error) {
	r := bytes.NewReader(pkt)
	var h v5Header
	if err := binary.Read(r, binary.BigEndian, &h); err != nil {
		return 0, fmt.Errorf("refmodel: v5 header: %w", err)
	}
	if h.Version != 5 {
		return 0, fmt.Errorf("refmodel: version %d, want 5", h.Version)
	}
	ts := time.Unix(int64(h.UnixSec), int64(h.UnixNsec))
	for i := 0; i < int(h.Count); i++ {
		var rec v5Record
		if err := binary.Read(r, binary.BigEndian, &rec); err != nil {
			return i, fmt.Errorf("refmodel: v5 record %d: %w", i, err)
		}
		src := ipString(rec.Src)
		name, hops, ok := m.Correlate(src, ts)
		if !ok {
			name = "NULL"
		}
		if _, err := fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%s\t%d\n",
			ts.Unix(), src, ipString(rec.Dst), rec.Octets, rec.Packets, name, hops); err != nil {
			return i, err
		}
	}
	return int(h.Count), nil
}
