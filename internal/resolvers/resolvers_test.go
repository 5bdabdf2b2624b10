package resolvers

import (
	"net/netip"
	"testing"
)

// TestWellKnownSeedList pins the seed list's integrity: every entry parses,
// is a concrete unicast address, and lands in the set exactly once.
func TestWellKnownSeedList(t *testing.T) {
	s := NewSet()
	seen := make(map[netip.Addr]bool, len(wellKnown))
	for _, raw := range wellKnown {
		a, err := netip.ParseAddr(raw)
		if err != nil {
			t.Fatalf("seed entry %q does not parse: %v", raw, err)
		}
		if a.IsUnspecified() || a.IsMulticast() || a.IsLoopback() {
			t.Errorf("seed entry %q is not a concrete unicast address", raw)
		}
		if seen[a] {
			t.Errorf("seed entry %q duplicated", raw)
		}
		seen[a] = true
		if !s.Contains(a) {
			t.Errorf("%s missing from well-known set", raw)
		}
	}
	if s.Len() != len(wellKnown) {
		t.Fatalf("Len = %d, want %d (every seed entry distinct)", s.Len(), len(wellKnown))
	}
}

// TestContains is the table-driven membership matrix: members in every
// address form, non-members, and degenerate inputs.
func TestContains(t *testing.T) {
	s := NewSet()
	cases := []struct {
		name string
		addr netip.Addr
		want bool
	}{
		{"cloudflare v4", netip.MustParseAddr("1.1.1.1"), true},
		{"google v4 secondary", netip.MustParseAddr("8.8.4.4"), true},
		{"quad9 v6", netip.MustParseAddr("2620:fe::fe"), true},
		{"cloudflare v6", netip.MustParseAddr("2606:4700:4700::1111"), true},
		{"member as 4-in-6 mapped", netip.MustParseAddr("::ffff:8.8.8.8"), true},
		{"documentation range", netip.MustParseAddr("192.0.2.1"), false},
		{"near-miss of a member", netip.MustParseAddr("1.1.1.2"), false},
		{"non-member 4-in-6 mapped", netip.MustParseAddr("::ffff:192.0.2.1"), false},
		{"v6 near-miss", netip.MustParseAddr("2620:fe::ff"), false},
		{"unspecified v4", netip.IPv4Unspecified(), false},
		{"unspecified v6", netip.IPv6Unspecified(), false},
		{"zero value addr", netip.Addr{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := s.Contains(c.addr); got != c.want {
				t.Errorf("Contains(%v) = %v, want %v", c.addr, got, c.want)
			}
		})
	}
}

// TestAddNormalizes checks the 4-in-6 canonicalization on the write side:
// adding a mapped address and looking it up as plain IPv4 (and vice versa)
// is one member, not two.
func TestAddNormalizes(t *testing.T) {
	s := EmptySet()
	v4 := netip.MustParseAddr("203.0.113.53")
	mapped := netip.MustParseAddr("::ffff:203.0.113.53")
	s.Add(mapped)
	if !s.Contains(v4) {
		t.Error("mapped add not visible as plain v4")
	}
	if !s.Contains(mapped) {
		t.Error("mapped add not visible as mapped lookup")
	}
	s.Add(v4)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after adding both forms, want 1", s.Len())
	}
}

func TestEmptySetAndAdd(t *testing.T) {
	s := EmptySet()
	if s.Len() != 0 {
		t.Fatalf("EmptySet Len = %d", s.Len())
	}
	if s.Contains(netip.MustParseAddr("8.8.8.8")) {
		t.Fatal("empty set claims membership")
	}
	a := netip.MustParseAddr("203.0.113.53")
	b := netip.MustParseAddr("2001:db8::53")
	s.Add(a)
	s.Add(a) // idempotent
	s.Add(b)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Fatal("added members missing")
	}
}

// The well-known set is large enough that map order would almost never
// come out sorted by chance; seeded consumers depend on the fixed order.
func TestAddrsOrdered(t *testing.T) {
	addrs := NewSet().Addrs()
	for i := 1; i < len(addrs); i++ {
		if !addrs[i-1].Less(addrs[i]) {
			t.Fatalf("Addrs()[%d]=%v not before [%d]=%v", i-1, addrs[i-1], i, addrs[i])
		}
	}
}

func TestAddrsRoundTrip(t *testing.T) {
	s := EmptySet()
	want := map[netip.Addr]bool{
		netip.MustParseAddr("203.0.113.1"): true,
		netip.MustParseAddr("203.0.113.2"): true,
		netip.MustParseAddr("2001:db8::1"): true,
	}
	for a := range want {
		s.Add(a)
	}
	addrs := s.Addrs()
	if len(addrs) != len(want) {
		t.Fatalf("Addrs len = %d, want %d", len(addrs), len(want))
	}
	for i, a := range addrs {
		if i > 0 && !addrs[i-1].Less(a) {
			t.Errorf("Addrs not in ascending order: %v before %v", addrs[i-1], a)
		}
		if !want[a] {
			t.Errorf("unexpected member %v", a)
		}
		if !s.Contains(a) {
			t.Errorf("Addrs member %v fails Contains", a)
		}
	}
}
