package netflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"time"
)

// The template engine: template records, the per-exporter template cache,
// the set walker and the record codec that NetFlow v9 (RFC 3954) and IPFIX
// (RFC 7011) share. IPFIX is the standardised form of v9 — both carry
// template sets and data sets behind a message header, and every element
// FlowDNS reads has the same number in both — so one engine serves both
// and a Dialect names the few places they differ.

// minDataSetID is the lowest data set (and template) ID in both dialects.
const minDataSetID = 256

// VarLen is the field length that marks an IPFIX variable-length element
// (RFC 7011 §7). In v9 it is an ordinary, if enormous, fixed length.
const VarLen = 0xFFFF

// Field types (v9) and information element IDs (IPFIX): the numbering is
// shared, so one table serves both dialects.
const (
	FieldInBytes      = 1
	FieldInPkts       = 2
	FieldProtocol     = 4
	FieldL4SrcPort    = 7
	FieldIPv4SrcAddr  = 8
	FieldL4DstPort    = 11
	FieldIPv4DstAddr  = 12
	FieldIPv6SrcAddr  = 27
	FieldIPv6DstAddr  = 28
	FieldFirstSwitch  = 22
	FieldLastSwitch   = 21
	FieldSrcAS        = 16
	FieldDstAS        = 17
	FieldInputSNMP    = 10
	FieldOutputSNMP   = 14
	FieldFlowStartMs  = 152 // IPFIX-style absolute ms, exported by many v9 stacks
	FieldFlowEndMs    = 153
	FieldIPv4NextHop  = 15
	FieldTCPFlags     = 6
	FieldSrcTos       = 5
	FieldDirection    = 61
	FieldSamplerID    = 48
	FieldFlowSampler  = 49
	FieldVLANIn       = 58
	FieldVLANOut      = 59
	FieldMinTTL       = 52
	FieldMaxTTL       = 53
	FieldICMPType     = 32
	FieldIPVersion    = 60
	FieldBGPNextHop   = 18
	FieldMulDstPkts   = 19
	FieldMulDstBytes  = 20
	FieldTotalBytes   = 85
	FieldTotalPkts    = 86
	FieldPostNATSrcV4 = 225
	FieldPostNATDstV4 = 226
)

// Dialect is what separates NetFlow v9 from IPFIX below the message
// header. Each protocol's package declares one; it is not a setting.
type Dialect struct {
	// Name prefixes the encoder's error messages.
	Name string
	// TemplateSetID and OptionsSetID are the reserved set IDs: 0/1 in v9,
	// 2/3 in IPFIX.
	TemplateSetID, OptionsSetID uint16
	// Extended enables what RFC 7011 added to template sets: the
	// enterprise bit (followed by a 4-byte enterprise number),
	// variable-length (VarLen) fields, and padding after the last
	// template record. Without it the first two are read literally and
	// padding is a malformed template.
	Extended bool
	// PadDataSets pads each encoded data set to a 4-byte boundary.
	PadDataSets bool

	// The errors each failure returns; dialects may share one value
	// between several.
	ErrSetLength     error // set length below its 4-byte header
	ErrSetShort      error // set runs past the message
	ErrBadTemplate   error // malformed template record
	ErrZeroLenField  error // template field of length 0
	ErrVarLenOverrun error // variable-length field runs past its set
}

// TemplateField is one field specifier in a template record: a v9 field
// type or IPFIX information element, its wire length, and (IPFIX only)
// the enterprise number, 0 for the standard elements.
type TemplateField struct {
	Type       uint16
	Length     uint16
	Enterprise uint32
}

// Template is a template record: an ID >= 256 and an ordered field list.
type Template struct {
	ID     uint16
	Fields []TemplateField
}

// recordLen returns the wire length of one data record under t, or -1
// when the dialect reads any of its fields as variable-length.
func (d *Dialect) recordLen(t *Template) int {
	n := 0
	for _, f := range t.Fields {
		if d.Extended && f.Length == VarLen {
			return -1
		}
		n += int(f.Length)
	}
	return n
}

// StandardTemplate is the template FlowDNS's synthetic exporters use: IPv4
// 5-tuple plus byte/packet counters and absolute-millisecond timestamps.
// Template ID 256 is the first legal data template ID.
func StandardTemplate() Template {
	return Template{
		ID: 256,
		Fields: []TemplateField{
			{Type: FieldIPv4SrcAddr, Length: 4},
			{Type: FieldIPv4DstAddr, Length: 4},
			{Type: FieldL4SrcPort, Length: 2},
			{Type: FieldL4DstPort, Length: 2},
			{Type: FieldProtocol, Length: 1},
			{Type: FieldInPkts, Length: 8},
			{Type: FieldInBytes, Length: 8},
			{Type: FieldFlowStartMs, Length: 8},
		},
	}
}

// StandardTemplateV6 mirrors StandardTemplate for IPv6 flows (ID 257).
func StandardTemplateV6() Template {
	t := StandardTemplate()
	t.ID = 257
	t.Fields[0] = TemplateField{Type: FieldIPv6SrcAddr, Length: 16}
	t.Fields[1] = TemplateField{Type: FieldIPv6DstAddr, Length: 16}
	return t
}

// TemplateCache stores templates per (exporter domain, template ID): the
// v9 source ID or IPFIX observation domain scopes template IDs. It is safe
// for concurrent use; multiple stream-reader goroutines share one cache
// per listening socket.
type TemplateCache struct {
	mu sync.RWMutex
	m  map[uint64]Template
}

// NewTemplateCache returns an empty cache.
func NewTemplateCache() *TemplateCache {
	return &TemplateCache{m: make(map[uint64]Template)}
}

func cacheKey(domain uint32, templateID uint16) uint64 {
	return uint64(domain)<<16 | uint64(templateID)
}

// Put stores a template announcement.
func (c *TemplateCache) Put(domain uint32, t Template) {
	c.mu.Lock()
	c.m[cacheKey(domain, t.ID)] = t
	c.mu.Unlock()
}

// Get looks a template up.
func (c *TemplateCache) Get(domain uint32, templateID uint16) (Template, bool) {
	c.mu.RLock()
	t, ok := c.m[cacheKey(domain, templateID)]
	c.mu.RUnlock()
	return t, ok
}

// Len returns the number of cached templates.
func (c *TemplateCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Sets is what a message body decodes to.
type Sets struct {
	// Templates lists the templates the message announced.
	Templates []Template
	Records   []FlowRecord
	// UnknownDataSets counts data sets skipped because no template was
	// cached yet; exporters re-announce templates periodically so this
	// heals.
	UnknownDataSets int
	// SkippedOptions counts options template sets, which are accepted and
	// skipped: FlowDNS does not consume option data.
	SkippedOptions int
}

// DecodeSets walks the sets of one message body (everything after the
// header), resolving data sets against cache — which is also updated with
// any templates the body announces — under the exporter's domain. Records
// without a start time get exportSecs.
func (d *Dialect) DecodeSets(body []byte, domain, exportSecs uint32, cache *TemplateCache) (Sets, error) {
	var s Sets
	for off := 0; off+4 <= len(body); {
		setID := binary.BigEndian.Uint16(body[off:])
		setLen := int(binary.BigEndian.Uint16(body[off+2:]))
		if setLen < 4 {
			return s, d.ErrSetLength
		}
		if off+setLen > len(body) {
			return s, d.ErrSetShort
		}
		set := body[off+4 : off+setLen]
		var err error
		switch {
		case setID == d.TemplateSetID:
			err = d.decodeTemplateSet(set, domain, &s, cache)
		case setID == d.OptionsSetID:
			s.SkippedOptions++
		case setID >= minDataSetID:
			err = d.decodeDataSet(setID, set, domain, exportSecs, &s, cache)
		default:
			// Reserved set IDs are skipped (RFC 3954 §5, RFC 7011 §3.3.2).
		}
		if err != nil {
			return s, err
		}
		off += setLen
	}
	return s, nil
}

func (d *Dialect) decodeTemplateSet(set []byte, domain uint32, s *Sets, cache *TemplateCache) error {
	off := 0
	for off+4 <= len(set) {
		id := binary.BigEndian.Uint16(set[off:])
		count := int(binary.BigEndian.Uint16(set[off+2:]))
		off += 4
		if d.Extended && id == 0 && count == 0 {
			break
		}
		if id < minDataSetID || count == 0 || off+count*4 > len(set) {
			return d.ErrBadTemplate
		}
		t := Template{ID: id, Fields: make([]TemplateField, count)}
		for i := range t.Fields {
			// Enterprise numbers can push later specifiers past the
			// count*4 bytes checked above.
			if off+4 > len(set) {
				return d.ErrBadTemplate
			}
			f := TemplateField{Type: binary.BigEndian.Uint16(set[off:]), Length: binary.BigEndian.Uint16(set[off+2:])}
			off += 4
			if d.Extended && f.Type&0x8000 != 0 {
				if off+4 > len(set) {
					return d.ErrBadTemplate
				}
				f.Type &= 0x7FFF
				f.Enterprise = binary.BigEndian.Uint32(set[off:])
				off += 4
			}
			if f.Length == 0 {
				return d.ErrZeroLenField
			}
			t.Fields[i] = f
		}
		s.Templates = append(s.Templates, t)
		if cache != nil {
			cache.Put(domain, t)
		}
	}
	return nil
}

func (d *Dialect) decodeDataSet(setID uint16, set []byte, domain, exportSecs uint32, s *Sets, cache *TemplateCache) error {
	var t Template
	ok := false
	if cache != nil {
		t, ok = cache.Get(domain, setID)
	}
	if !ok {
		// Also try templates announced earlier in this same message.
		for _, cand := range s.Templates {
			if cand.ID == setID {
				t, ok = cand, true
				break
			}
		}
	}
	if !ok {
		s.UnknownDataSets++
		return nil
	}
	hdrTime := time.Unix(int64(exportSecs), 0)
	switch rl := d.recordLen(&t); {
	case rl > 0:
		// Fixed stride; a tail shorter than one record is padding.
		for off := 0; off+rl <= len(set); off += rl {
			rec := s.nextRecord()
			d.decodeRecord(rec, set[off:off+rl], &t)
			if rec.Timestamp.IsZero() {
				rec.Timestamp = hdrTime
			}
		}
	case rl < 0:
		// Variable-length records are walked one by one; a tail shorter
		// than 4 bytes is padding.
		for off := 0; off < len(set); {
			rec := s.nextRecord()
			n, err := d.decodeRecord(rec, set[off:], &t)
			if err != nil {
				return err
			}
			if rec.Timestamp.IsZero() {
				rec.Timestamp = hdrTime
			}
			if off += n; len(set)-off < 4 {
				break
			}
		}
	case !d.Extended:
		// A template without fields (only a caller's Put makes one): v9
		// counts its data sets as unknown, IPFIX skips them.
		s.UnknownDataSets++
	}
	return nil
}

// nextRecord appends a zero record and returns it for decoding in place.
func (s *Sets) nextRecord() *FlowRecord {
	s.Records = append(s.Records, FlowRecord{})
	return &s.Records[len(s.Records)-1]
}

// decodeRecord decodes the record at the front of b under t into r and
// returns its wire length. This switch is the one field→FlowRecord table
// both dialects read through; enterprise-specific elements are skipped.
func (d *Dialect) decodeRecord(r *FlowRecord, b []byte, t *Template) (int, error) {
	off := 0
	for _, f := range t.Fields {
		n := int(f.Length)
		if d.Extended && f.Length == VarLen {
			if off >= len(b) {
				return 0, d.ErrVarLenOverrun
			}
			n = int(b[off])
			off++
			if n == 255 {
				if off+2 > len(b) {
					return 0, d.ErrVarLenOverrun
				}
				n = int(binary.BigEndian.Uint16(b[off:]))
				off += 2
			}
		}
		if off+n > len(b) {
			return 0, d.ErrVarLenOverrun
		}
		v := b[off : off+n]
		off += n
		if f.Enterprise != 0 {
			continue
		}
		switch f.Type {
		case FieldIPv4SrcAddr:
			if len(v) == 4 {
				r.SrcIP = netip.AddrFrom4([4]byte(v))
			}
		case FieldIPv4DstAddr:
			if len(v) == 4 {
				r.DstIP = netip.AddrFrom4([4]byte(v))
			}
		case FieldIPv6SrcAddr:
			if len(v) == 16 {
				r.SrcIP = netip.AddrFrom16([16]byte(v))
			}
		case FieldIPv6DstAddr:
			if len(v) == 16 {
				r.DstIP = netip.AddrFrom16([16]byte(v))
			}
		case FieldL4SrcPort:
			r.SrcPort = uint16(beUint(v))
		case FieldL4DstPort:
			r.DstPort = uint16(beUint(v))
		case FieldProtocol:
			r.Proto = uint8(beUint(v))
		case FieldInPkts, FieldTotalPkts:
			r.Packets = beUint(v)
		case FieldInBytes, FieldTotalBytes:
			r.Bytes = beUint(v)
		case FieldFlowStartMs:
			if ms := beUint(v); ms != 0 {
				r.Timestamp = time.UnixMilli(int64(ms))
			}
		}
	}
	return off, nil
}

// beUint reads a big-endian unsigned integer of 1..8 bytes, the rule for
// variable-width counter fields; longer values keep their low 8 bytes.
func beUint(b []byte) uint64 {
	var n uint64
	if len(b) > 8 {
		b = b[len(b)-8:]
	}
	for _, c := range b {
		n = n<<8 | uint64(c)
	}
	return n
}

// AppendSets appends a template set announcing t and, when records is
// non-empty, one data set of records encoded under t. Records must fit
// the standard templates' field layout (IPv4 or IPv6 source/dest, ports,
// proto, counters, start-ms). A caller reusing dst encodes at zero
// allocations once it has grown to the message size.
func (d *Dialect) AppendSets(dst []byte, t Template, records []FlowRecord) ([]byte, error) {
	buf := dst
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, d.TemplateSetID)
	buf = binary.BigEndian.AppendUint16(buf, 0) // set length, backfilled
	buf = binary.BigEndian.AppendUint16(buf, t.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.Fields)))
	for _, f := range t.Fields {
		ent := d.Extended && f.Enterprise != 0
		if ent {
			f.Type |= 0x8000
		}
		buf = binary.BigEndian.AppendUint16(buf, f.Type)
		buf = binary.BigEndian.AppendUint16(buf, f.Length)
		if ent {
			buf = binary.BigEndian.AppendUint32(buf, f.Enterprise)
		}
	}
	binary.BigEndian.PutUint16(buf[start+2:], uint16(len(buf)-start))

	if len(records) == 0 {
		return buf, nil
	}
	start = len(buf)
	buf = binary.BigEndian.AppendUint16(buf, t.ID)
	buf = binary.BigEndian.AppendUint16(buf, 0) // set length, backfilled
	for i := range records {
		var err error
		if buf, err = d.appendRecord(buf, &t, &records[i]); err != nil {
			return nil, err
		}
	}
	if d.PadDataSets {
		for (len(buf)-start)%4 != 0 {
			buf = append(buf, 0)
		}
	}
	binary.BigEndian.PutUint16(buf[start+2:], uint16(len(buf)-start))
	return buf, nil
}

// appendRecord is the record encoder: the mapped fields are written from
// r, every other field is zero-filled (an IPFIX variable-length one as
// empty).
func (d *Dialect) appendRecord(buf []byte, t *Template, r *FlowRecord) ([]byte, error) {
	for _, f := range t.Fields {
		switch f.Type {
		case FieldIPv4SrcAddr:
			if !r.SrcIP.Is4() {
				return nil, fmt.Errorf("%s: template %d needs IPv4 src, have %v", d.Name, t.ID, r.SrcIP)
			}
			a := r.SrcIP.As4()
			buf = append(buf, a[:]...)
		case FieldIPv4DstAddr:
			if !r.DstIP.Is4() {
				return nil, fmt.Errorf("%s: template %d needs IPv4 dst, have %v", d.Name, t.ID, r.DstIP)
			}
			a := r.DstIP.As4()
			buf = append(buf, a[:]...)
		case FieldIPv6SrcAddr:
			a := r.SrcIP.As16()
			buf = append(buf, a[:]...)
		case FieldIPv6DstAddr:
			a := r.DstIP.As16()
			buf = append(buf, a[:]...)
		case FieldL4SrcPort:
			buf = binary.BigEndian.AppendUint16(buf, r.SrcPort)
		case FieldL4DstPort:
			buf = binary.BigEndian.AppendUint16(buf, r.DstPort)
		case FieldProtocol:
			buf = append(buf, r.Proto)
		case FieldInPkts:
			buf = binary.BigEndian.AppendUint64(buf, r.Packets)
		case FieldInBytes:
			buf = binary.BigEndian.AppendUint64(buf, r.Bytes)
		case FieldFlowStartMs:
			buf = binary.BigEndian.AppendUint64(buf, uint64(r.Timestamp.UnixMilli()))
		default:
			if d.Extended && f.Length == VarLen {
				buf = append(buf, 0)
				continue
			}
			for i := 0; i < int(f.Length); i++ {
				buf = append(buf, 0)
			}
		}
	}
	return buf, nil
}
