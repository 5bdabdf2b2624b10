// Package ipfix is the IPFIX (RFC 7011) dialect of the NetFlow template
// engine.
//
// The paper's introduction names IPFIX alongside NetFlow as the flow
// protocols ISPs export ("e.g. Netflow [7], IPFIX [2]"), and §3 notes the
// system "is not bound to NetFlow data and can be adapted to use other
// data formats containing IP addresses and timestamps". IPFIX is the
// standardised form of NetFlow v9: templates, the template cache, the set
// walker and the record codec live in internal/netflow and serve both.
// This package owns what is IPFIX's own: the 16-byte message header and
// its length check, the set IDs (template set 2, options template set 3,
// counted and skipped), enterprise-number field specifiers and
// variable-length fields (RFC 7011 §7), and its error values.
//
// The information elements FlowDNS consumes are the IANA standard ones:
// sourceIPv4Address(8), destinationIPv4Address(12), sourceIPv6Address(27),
// destinationIPv6Address(28), sourceTransportPort(7),
// destinationTransportPort(11), protocolIdentifier(4), octetDeltaCount(1),
// packetDeltaCount(2), octetTotalCount(85), packetTotalCount(86),
// flowStartMilliseconds(152).
package ipfix

import (
	"encoding/binary"
	"errors"

	"repro/internal/netflow"
)

// Wire constants (RFC 7011 §3).
const (
	Version   = 10
	headerLen = 16
)

// IANA information element IDs used by FlowDNS.
const (
	IEOctetDeltaCount     = 1
	IEPacketDeltaCount    = 2
	IEProtocolIdentifier  = 4
	IESourceTransportPort = 7
	IESourceIPv4Address   = 8
	IEDestTransportPort   = 11
	IEDestIPv4Address     = 12
	IESourceIPv6Address   = 27
	IEDestIPv6Address     = 28
	IEFlowStartMillis     = 152
	IEFlowEndMillis       = 153
	IEInterfaceName       = 82 // commonly variable-length; exercised in tests
	IEApplicationName     = 96
)

// Errors returned by the codec.
var (
	ErrShort         = errors.New("ipfix: message shorter than header")
	ErrVersion       = errors.New("ipfix: not an IPFIX message")
	ErrLength        = errors.New("ipfix: header length disagrees with payload")
	ErrSetLength     = errors.New("ipfix: set length invalid")
	ErrBadTemplate   = errors.New("ipfix: malformed template set")
	ErrVarLenOverrun = errors.New("ipfix: variable-length field overruns set")
	ErrTemplateScope = errors.New("ipfix: template id below 256")
)

// dialect is IPFIX's difference from NetFlow v9 below the header: set IDs
// 2/3, enterprise numbers and variable-length fields, template sets that
// may end in padding, and unpadded data sets.
var dialect = &netflow.Dialect{
	Name:          "ipfix",
	TemplateSetID: 2,
	OptionsSetID:  3,
	Extended:      true,

	ErrSetLength:     ErrSetLength,
	ErrSetShort:      ErrSetLength,
	ErrBadTemplate:   ErrBadTemplate,
	ErrZeroLenField:  ErrBadTemplate,
	ErrVarLenOverrun: ErrVarLenOverrun,
}

// FieldSpec is one field specifier: an information element (Type), its
// wire length (netflow.VarLen = variable), and an enterprise number (0 =
// IANA).
type FieldSpec = netflow.TemplateField

// Template is an IPFIX template record.
type Template = netflow.Template

// Cache stores templates per (observation domain, template id).
type Cache = netflow.TemplateCache

// NewCache returns an empty template cache.
func NewCache() *Cache { return netflow.NewTemplateCache() }

// StandardTemplate is the IPv4 flow template FlowDNS's IPFIX exporters use
// (template 256): element for element NetFlow v9's standard template.
func StandardTemplate() Template { return netflow.StandardTemplate() }

// StandardTemplateV6 mirrors StandardTemplate for IPv6 (template 257).
func StandardTemplateV6() Template { return netflow.StandardTemplateV6() }

// Header is the 16-byte IPFIX message header.
type Header struct {
	Length         uint16
	ExportTime     uint32 // seconds since epoch
	SequenceNumber uint32
	DomainID       uint32 // observation domain
}

// Message is a decoded IPFIX message.
type Message struct {
	Header          Header
	Templates       []Template
	Records         []netflow.FlowRecord
	UnknownDataSets int
	SkippedOptions  int
}

// Encode builds one IPFIX message carrying a template set announcing t and
// one data set of records encoded under it.
func Encode(h Header, t Template, records []netflow.FlowRecord) ([]byte, error) {
	if t.ID < 256 {
		return nil, ErrTemplateScope
	}
	buf, err := dialect.AppendSets(make([]byte, headerLen), t, records)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(buf[0:], Version)
	binary.BigEndian.PutUint16(buf[2:], uint16(len(buf)))
	binary.BigEndian.PutUint32(buf[4:], h.ExportTime)
	binary.BigEndian.PutUint32(buf[8:], h.SequenceNumber)
	binary.BigEndian.PutUint32(buf[12:], h.DomainID)
	return buf, nil
}

// Decode parses one IPFIX message, resolving data sets against cache
// (updated with any announced templates).
func Decode(pkt []byte, cache *Cache) (*Message, error) {
	if len(pkt) < headerLen {
		return nil, ErrShort
	}
	if binary.BigEndian.Uint16(pkt) != Version {
		return nil, ErrVersion
	}
	h := Header{
		Length:         binary.BigEndian.Uint16(pkt[2:]),
		ExportTime:     binary.BigEndian.Uint32(pkt[4:]),
		SequenceNumber: binary.BigEndian.Uint32(pkt[8:]),
		DomainID:       binary.BigEndian.Uint32(pkt[12:]),
	}
	if int(h.Length) != len(pkt) {
		return nil, ErrLength
	}
	s, err := dialect.DecodeSets(pkt[headerLen:], h.DomainID, h.ExportTime, cache)
	if err != nil {
		return nil, err
	}
	return &Message{Header: h, Templates: s.Templates, Records: s.Records,
		UnknownDataSets: s.UnknownDataSets, SkippedOptions: s.SkippedOptions}, nil
}
