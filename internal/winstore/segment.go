// Package winstore persists sealed rollup windows into a time-partitioned
// on-disk store and serves them back for time-range queries — the durable
// half of the query plane (the HTTP half is internal/queryapi).
//
// The pipeline's rollup sink seals one window per rotation interval; a
// Store groups those windows into partitions of PartDur wall-clock time
// (one segment file per partition interval) and keeps an in-memory index
// of every partition's windows, so range queries never touch the disk.
// Disk is durability: a restarted process re-opens the directory and
// answers the same queries from the persisted segments.
//
// # Segment format
//
// A segment is an internal/frame file with magic "FDWP"; frame owns the
// framing, checksums, allocation bounds and atomic write. This package owns
//
//	header meta : partStart i64 | partDur i64
//	section meta: flags u8 | winStart i64 | winDur u32
//	row         : serviceLen uvarint | service | asn uvarint | category u8 |
//	              bytes u64 | packets u64 | flows u64
//
// Times are Unix seconds, durations whole seconds. A section is one sealed
// window, or one partial of it: oversized windows rotate into several
// sections of the same interval, and partials merge back under the rollup
// merge laws. A decoder that hits damage returns every section it already
// validated along with the error, so a torn partition keeps its prefix.
package winstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dbl"
	"repro/internal/frame"
	"repro/internal/rollup"
)

// Version is the segment format version this package writes. Readers
// reject files with a greater version.
const Version = 1

// Magic identifies a window-store segment file.
const Magic = "FDWP"

// SegFlagCompacted marks a segment whose windows have been compacted: one
// canonical window per interval, partials already merged.
const SegFlagCompacted = 1 << 0

// ErrCorrupt reports a structurally invalid or checksum-failing segment.
// Errors from DecodeSegment wrap it; Open treats it as a partial partition
// and keeps the validated prefix.
var ErrCorrupt = errors.New("winstore: corrupt")

// ErrVersion reports a segment written by a newer format version.
var ErrVersion = errors.New("winstore: unsupported version")

// format frames segment files; its failpoints are winstore.segment.{write,sync,rename}.
// The smallest row (empty service, 1-byte ASN, category, three counters) is
// 1+1+1+24 bytes.
var format = frame.Format{Magic: Magic, Version: Version, HeaderMeta: 16, Marker: 'W', SectionMeta: 13,
	MinRecord: 1 + 1 + 1 + 24, Corrupt: ErrCorrupt, Unsupported: ErrVersion, Faults: frame.NewFaults("winstore.segment")}

// Segment is the decoded contents of one partition file: the partition
// interval plus every sealed window (or validated partial) it holds.
type Segment struct {
	// Start and Dur delimit the partition interval [Start, Start+Dur).
	Start time.Time
	Dur   time.Duration
	// Compacted reports the SegFlagCompacted header flag.
	Compacted bool
	// Windows are the stored windows in file order. Several entries may
	// share one interval (partials from late flows or section rotation);
	// they merge back under rollup.Merge.
	Windows []rollup.Window
}

// EncodeSegment writes seg to w in segment format. Windows are written in
// slice order, one section each; windows whose encoding outgrows the
// section size limit rotate into additional sections of the same interval.
func EncodeSegment(w io.Writer, seg *Segment) error {
	var flags uint16
	if seg.Compacted {
		flags |= SegFlagCompacted
	}
	var meta [16]byte
	binary.LittleEndian.PutUint64(meta[0:8], uint64(seg.Start.Unix()))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(seg.Dur/time.Second))
	fw, err := format.NewWriter(w, flags, meta[:])
	if err != nil {
		return err
	}
	var payload []byte
	writeSection := func(win *rollup.Window, rows uint32) error {
		var sm [13]byte // flags u8 (none defined) | winStart i64 | winDur u32
		binary.LittleEndian.PutUint64(sm[1:9], uint64(win.Start.Unix()))
		binary.LittleEndian.PutUint32(sm[9:13], uint32(win.Dur/time.Second))
		err := fw.Section(sm[:], rows, payload)
		payload = payload[:0]
		return err
	}
	for i := range seg.Windows {
		win := &seg.Windows[i]
		rows := uint32(0)
		for r := range win.Rows {
			payload = appendRow(payload, &win.Rows[r])
			rows++
			if len(payload) >= frame.MaxSection && r+1 < len(win.Rows) {
				// Rotate: flush this partial and continue the window in a
				// fresh section of the same interval.
				if err := writeSection(win, rows); err != nil {
					return err
				}
				rows = 0
			}
		}
		if err := writeSection(win, rows); err != nil {
			return err
		}
	}
	return fw.Close()
}

// appendRow encodes one rollup row.
func appendRow(b []byte, r *rollup.Row) []byte {
	b = append(binary.AppendUvarint(b, uint64(len(r.Service))), r.Service...)
	b = append(binary.AppendUvarint(b, uint64(r.ASN)), byte(r.Category))
	b = binary.LittleEndian.AppendUint64(b, r.Bytes)
	b = binary.LittleEndian.AppendUint64(b, r.Packets)
	b = binary.LittleEndian.AppendUint64(b, r.Flows)
	return b
}

// decodeRows decodes count rows from payload.
func decodeRows(p []byte, count uint32) ([]rollup.Row, error) {
	var rows []rollup.Row
	if count > 0 {
		rows = make([]rollup.Row, 0, count)
	}
	for i := uint32(0); i < count; i++ {
		n, used := binary.Uvarint(p)
		if used <= 0 || n > uint64(len(p)-used) {
			return nil, fmt.Errorf("%w: row %d: bad service length", ErrCorrupt, i)
		}
		svc := string(p[used : used+int(n)])
		p = p[used+int(n):]
		asn, used := binary.Uvarint(p)
		if used <= 0 || asn > 1<<32-1 {
			return nil, fmt.Errorf("%w: row %d: bad asn", ErrCorrupt, i)
		}
		p = p[used:]
		if len(p) < 1+24 {
			return nil, fmt.Errorf("%w: row %d: short counters", ErrCorrupt, i)
		}
		cat := dbl.Category(p[0])
		rows = append(rows, rollup.Row{
			Key: rollup.Key{Service: svc, ASN: uint32(asn), Category: cat},
			Counters: rollup.Counters{
				Bytes:   binary.LittleEndian.Uint64(p[1:9]),
				Packets: binary.LittleEndian.Uint64(p[9:17]),
				Flows:   binary.LittleEndian.Uint64(p[17:25]),
			},
		})
		p = p[25:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes after %d rows", ErrCorrupt, len(p), count)
	}
	return rows, nil
}

// DecodeSegment reads a segment stream. On damage it returns the segment
// populated with every section validated so far plus a non-nil error
// wrapping ErrCorrupt (or ErrVersion) — the partial-prefix contract Open
// relies on: a torn write costs the tail, never the partition.
func DecodeSegment(r io.Reader) (*Segment, error) {
	fr, err := format.NewReader(r)
	if err != nil {
		return nil, err
	}
	seg := &Segment{
		Start:     time.Unix(int64(binary.LittleEndian.Uint64(fr.Meta[0:8])), 0).UTC(),
		Dur:       time.Duration(binary.LittleEndian.Uint64(fr.Meta[8:16])) * time.Second,
		Compacted: fr.Flags&SegFlagCompacted != 0,
	}
	for {
		meta, count, payload, err := fr.Next()
		if err == io.EOF {
			return seg, nil
		}
		if err != nil {
			return seg, err
		}
		rows, err := decodeRows(payload, count)
		if err != nil {
			return seg, err
		}
		seg.Windows = append(seg.Windows, rollup.Window{
			Start: time.Unix(int64(binary.LittleEndian.Uint64(meta[1:9])), 0).UTC(),
			Dur:   time.Duration(binary.LittleEndian.Uint32(meta[9:13])) * time.Second,
			Rows:  rows,
		})
	}
}

// WriteSegmentFile writes seg to path atomically through frame's
// WriteFile, so readers never observe a partial segment and a crash
// mid-write leaves the previous segment intact.
func WriteSegmentFile(path string, seg *Segment) error {
	return format.WriteFile(path, func(w io.Writer) error { return EncodeSegment(w, seg) })
}

// ReadSegmentFile decodes one segment file, honoring DecodeSegment's
// partial-prefix contract.
func ReadSegmentFile(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSegment(f)
}
