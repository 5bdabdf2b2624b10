package refmodel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func TestCorrelateWalksChainToServiceName(t *testing.T) {
	m := New(time.Hour)
	m.AddCNAME(t0, "www.shop.example", "lb.cdn.net", 300)
	m.AddCNAME(t0, "lb.cdn.net", "edge7.cdn.net", 300)
	m.AddAddr(t0, "100.64.0.7", "edge7.cdn.net", 60)
	name, hops, ok := m.Correlate("100.64.0.7", t0)
	if !ok || name != "www.shop.example" || hops != 2 {
		t.Fatalf("got %q after %d hops (ok=%v)", name, hops, ok)
	}
	if _, _, ok := m.Correlate("100.64.0.8", t0); ok {
		t.Error("unannounced address resolved")
	}
	if got := m.Walk("edge7.cdn.net", t0); strings.Join(got, ">") != "edge7.cdn.net>lb.cdn.net>www.shop.example" {
		t.Errorf("walk = %v", got)
	}
}

func TestChainLimitAndLatestAnnouncementWins(t *testing.T) {
	m := New(time.Hour)
	for i := 0; i < 9; i++ {
		m.AddCNAME(t0, fmt.Sprintf("n%d", i+1), fmt.Sprintf("n%d", i), 300)
	}
	m.AddAddr(t0, "10.0.0.1", "n0", 300)
	if name, hops, _ := m.Correlate("10.0.0.1", t0); name != "n6" || hops != ChainLimit {
		t.Errorf("limited walk ended at %q after %d hops", name, hops)
	}
	if got := len(m.Walk("n0", t0)); got != 10 {
		t.Errorf("unlimited walk has %d names, want 10", got)
	}
	m.AddAddr(t0, "10.0.0.1", "other.example", 300)
	if name, _, _ := m.Correlate("10.0.0.1", t0); name != "other.example" {
		t.Errorf("latest announcement lost to %q", name)
	}
	if got := m.Announced("10.0.0.1", t0); len(got) != 2 {
		t.Errorf("announced = %v, want both names", got)
	}
}

func TestExpiryHonoursTTLAndMinLifetime(t *testing.T) {
	strict, kept := New(0), New(time.Hour)
	for _, m := range []*Model{strict, kept} {
		m.AddAddr(t0, "10.0.0.1", "svc.example", 20)
	}
	later := t0.Add(21 * time.Second)
	if _, _, ok := strict.Correlate("10.0.0.1", later); ok {
		t.Error("record outlived its TTL with no minimum lifetime")
	}
	if !kept.Has("10.0.0.1", later) {
		t.Error("record dropped before the clear-up interval")
	}
	if kept.Has("10.0.0.1", t0.Add(2*time.Hour)) {
		t.Error("record outlived both TTL and minimum lifetime")
	}
}

func TestV5DatagramRows(t *testing.T) {
	m := New(time.Hour)
	m.AddAddr(t0, "100.64.1.2", "svc.example", 300)
	pkt := binary.BigEndian.AppendUint16(nil, 5)
	pkt = binary.BigEndian.AppendUint16(pkt, 2)
	pkt = binary.BigEndian.AppendUint32(pkt, 0)
	pkt = binary.BigEndian.AppendUint32(pkt, uint32(t0.Unix()))
	pkt = append(pkt, make([]byte, 12)...)
	for _, src := range [][4]byte{{100, 64, 1, 2}, {172, 16, 0, 9}} {
		rec := make([]byte, 48)
		copy(rec, src[:])
		copy(rec[4:], []byte{10, 0, 0, 1})
		binary.BigEndian.PutUint32(rec[16:], 77)   // packets
		binary.BigEndian.PutUint32(rec[20:], 1500) // octets
		pkt = append(pkt, rec...)
	}
	var out bytes.Buffer
	n, err := m.V5Datagram(pkt, &out)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	want := "1700000000\t100.64.1.2\t10.0.0.1\t1500\t77\tsvc.example\t0\n" +
		"1700000000\t172.16.0.9\t10.0.0.1\t1500\t77\tNULL\t0\n"
	if out.String() != want {
		t.Errorf("rows:\n%s\nwant:\n%s", out.String(), want)
	}
	if _, err := m.V5Datagram(pkt[:40], &out); err == nil {
		t.Error("truncated datagram decoded without error")
	}
}
