package netflow

import (
	"encoding/binary"
	"errors"
)

// NetFlow v9 (RFC 3954) constants.
const (
	v9Version   = 9
	v9HeaderLen = 20
)

// Errors returned by the v9 codec.
var (
	ErrV9Short        = errors.New("netflow: v9 packet shorter than header")
	ErrV9Version      = errors.New("netflow: not a v9 packet")
	ErrV9SetShort     = errors.New("netflow: v9 flowset shorter than declared")
	ErrV9SetLength    = errors.New("netflow: v9 flowset length below minimum")
	ErrV9NoTemplate   = errors.New("netflow: data flowset without known template")
	ErrV9BadTemplate  = errors.New("netflow: malformed template flowset")
	ErrV9ZeroLenField = errors.New("netflow: template field with zero length")
)

// v9 is the NetFlow v9 dialect of the template engine: template FlowSet 0,
// options template FlowSet 1, no enterprise numbers or variable-length
// fields, and data FlowSets padded to 4 bytes.
var v9 = &Dialect{
	Name:          "netflow",
	TemplateSetID: 0,
	OptionsSetID:  1,
	PadDataSets:   true,

	ErrSetLength:    ErrV9SetLength,
	ErrSetShort:     ErrV9SetShort,
	ErrBadTemplate:  ErrV9BadTemplate,
	ErrZeroLenField: ErrV9ZeroLenField,
}

// V9Header is the 20-byte NetFlow v9 export header.
type V9Header struct {
	Count       uint16 // total records (template + data) in this packet
	SysUptimeMs uint32
	UnixSecs    uint32
	SequenceNum uint32
	SourceID    uint32 // exporter observation domain
}

// V9Packet is a decoded v9 export packet: any templates it announced and the
// flow records its data sets carried.
type V9Packet struct {
	Header    V9Header
	Templates []Template
	Records   []FlowRecord
	// UnknownDataSets counts data FlowSets skipped because no template was
	// cached yet; exporters re-announce templates periodically so this heals.
	UnknownDataSets int
}

// EncodeV9 builds an export packet containing a template FlowSet announcing
// t followed by one data FlowSet with the given records (all encoded under
// t). Records must fit the standard templates' field layout (IPv4 or IPv6
// source/dest, ports, proto, counters, start-ms).
func EncodeV9(h V9Header, t Template, records []FlowRecord) ([]byte, error) {
	buf := make([]byte, 0, v9HeaderLen+64+len(records)*v9.recordLen(&t))
	return AppendV9(buf, h, t, records)
}

// AppendV9 is EncodeV9 into a caller-supplied buffer: the packet is
// appended to dst and the extended slice returned. A caller that reuses
// dst across packets (the forwarder's per-node fanout path) encodes at
// zero allocations once the buffer has grown to the datagram size. On an
// encode error dst may hold a partial packet; callers reusing the buffer
// re-slice to [:0] anyway.
func AppendV9(dst []byte, h V9Header, t Template, records []FlowRecord) ([]byte, error) {
	// Count = 1 template record + len(records) data records.
	buf := binary.BigEndian.AppendUint16(dst, v9Version)
	buf = binary.BigEndian.AppendUint16(buf, uint16(1+len(records)))
	buf = binary.BigEndian.AppendUint32(buf, h.SysUptimeMs)
	buf = binary.BigEndian.AppendUint32(buf, h.UnixSecs)
	buf = binary.BigEndian.AppendUint32(buf, h.SequenceNum)
	buf = binary.BigEndian.AppendUint32(buf, h.SourceID)
	return v9.AppendSets(buf, t, records)
}

// DecodeV9 parses a v9 export packet, resolving data FlowSets against cache
// (which is also updated with any templates the packet announces, keyed by
// the header's SourceID).
func DecodeV9(pkt []byte, cache *TemplateCache) (*V9Packet, error) {
	if len(pkt) < v9HeaderLen {
		return nil, ErrV9Short
	}
	if binary.BigEndian.Uint16(pkt) != v9Version {
		return nil, ErrV9Version
	}
	h := V9Header{
		Count:       binary.BigEndian.Uint16(pkt[2:]),
		SysUptimeMs: binary.BigEndian.Uint32(pkt[4:]),
		UnixSecs:    binary.BigEndian.Uint32(pkt[8:]),
		SequenceNum: binary.BigEndian.Uint32(pkt[12:]),
		SourceID:    binary.BigEndian.Uint32(pkt[16:]),
	}
	s, err := v9.DecodeSets(pkt[v9HeaderLen:], h.SourceID, h.UnixSecs, cache)
	if err != nil {
		return nil, err
	}
	return &V9Packet{Header: h, Templates: s.Templates, Records: s.Records, UnknownDataSets: s.UnknownDataSets}, nil
}
