// Package resolvers provides the public-DNS-resolver list used by the
// coverage analysis.
//
// FlowDNS only sees DNS cache misses from the ISP's default resolvers; §4
// "Coverage" estimates the blind spot by filtering one hour of NetFlow for
// ports 53/853 and matching destinations against a public resolver list
// (the paper uses public-dns.info). It finds 1 of every 20 DNS packets
// going to a public resolver — 95 % coverage. This package is the list
// substrate: the well-known anycast resolvers plus room for additions.
package resolvers

import (
	"net/netip"
	"slices"
)

// wellKnown are the anycast public resolvers the paper names (Cloudflare,
// Google Public DNS, Quad9) plus other major public services.
var wellKnown = []string{
	// Cloudflare
	"1.1.1.1", "1.0.0.1", "2606:4700:4700::1111", "2606:4700:4700::1001",
	// Google Public DNS
	"8.8.8.8", "8.8.4.4", "2001:4860:4860::8888", "2001:4860:4860::8844",
	// Quad9
	"9.9.9.9", "149.112.112.112", "2620:fe::fe", "2620:fe::9",
	// OpenDNS
	"208.67.222.222", "208.67.220.220", "2620:119:35::35", "2620:119:53::53",
	// AdGuard
	"94.140.14.14", "94.140.15.15",
	// CleanBrowsing
	"185.228.168.9", "185.228.169.9",
	// Comodo
	"8.26.56.26", "8.20.247.20",
	// Yandex
	"77.88.8.8", "77.88.8.1",
}

// Set is a membership set of public resolver addresses. Addresses are
// stored in canonical form: IPv4-mapped IPv6 addresses (::ffff:a.b.c.d)
// unmap to their IPv4 form on the way in and on lookup, so a NetFlow
// exporter emitting mapped addresses matches the same members. Build the
// set up front; it is safe for concurrent reads once no more Adds happen
// (the same build-then-read contract as bgp.Table).
type Set struct {
	m map[netip.Addr]struct{}
}

// NewSet returns a set seeded with the well-known public resolvers.
func NewSet() *Set {
	s := &Set{m: make(map[netip.Addr]struct{}, len(wellKnown))}
	for _, a := range wellKnown {
		s.Add(netip.MustParseAddr(a))
	}
	return s
}

// EmptySet returns a set with no entries, for tests and custom lists.
func EmptySet() *Set { return &Set{m: make(map[netip.Addr]struct{})} }

// Add inserts an address (4-in-6 mapped forms normalize to IPv4).
func (s *Set) Add(a netip.Addr) { s.m[a.Unmap()] = struct{}{} }

// Contains reports membership; 4-in-6 mapped forms match their IPv4
// member. Invalid (zero) addresses are never members.
func (s *Set) Contains(a netip.Addr) bool {
	_, ok := s.m[a.Unmap()]
	return ok
}

// Len returns the set size.
func (s *Set) Len() int { return len(s.m) }

// Addrs returns the members in ascending address order — a fixed order, so
// seeded consumers (the workload generator indexes into it) reproduce
// across processes.
func (s *Set) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(s.m))
	for a := range s.m {
		out = append(out, a)
	}
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}
