package main

import (
	"encoding/binary"
	"testing"

	"repro/internal/ipfix"
	"repro/internal/netflow"
)

// decodeOnlySource decodes datagrams the way stream.FlowUDPSource does, with
// per-exporter template caches, without a socket.
type decodeOnlySource struct {
	v9    *netflow.TemplateCache
	ipfix *ipfix.Cache
}

func newDecodeOnlySource() *decodeOnlySource {
	return &decodeOnlySource{v9: netflow.NewTemplateCache(), ipfix: ipfix.NewCache()}
}

func (s *decodeOnlySource) decode(t *testing.T, pkt []byte) []netflow.FlowRecord {
	t.Helper()
	switch binary.BigEndian.Uint16(pkt) {
	case 5:
		recs, err := netflow.AppendV5Flows(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	case 9:
		p, err := netflow.DecodeV9(pkt, s.v9)
		if err != nil || p.UnknownDataSets != 0 {
			t.Fatalf("v9 decode: %v, %d unknown data sets", err, p.UnknownDataSets)
		}
		return p.Records
	default:
		m, err := ipfix.Decode(pkt, s.ipfix)
		if err != nil || m.UnknownDataSets != 0 {
			t.Fatalf("ipfix decode: %v, %d unknown data sets", err, m.UnknownDataSets)
		}
		return m.Records
	}
}
