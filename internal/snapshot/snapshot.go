// Package snapshot implements the FlowDNS warm-restart checkpoint format
// for the correlation store's contents. A cold-started correlator degrades
// correlation for hours while its DNS cache re-warms; a checkpoint written
// on the clear-up cadence (and on graceful drain) lets the next boot resume
// from the accumulated answers instead.
//
// A snapshot is an internal/frame file with magic "FDSN"; frame owns the
// framing, checksums, allocation bounds and atomic write. This package owns
//
//	header meta : created i64 (UnixNano)
//	section meta: family u8 | gen u8 | flags u8 | split u32
//	entry       : keyLen uvarint | key | valueLen uvarint | value | exp i64
//
// A section holds entries of one (family, generation, split) store cell,
// flagged with its key form; the writer rotates a large cell into more sections at
// frame.MaxSection, which also gives a restoring correlator units to fan out
// across its lanes. exp is the absolute expiry in UnixNano (0 = never),
// as the store's cmap entries carry it, so restore drops expired entries
// without re-deriving TTLs.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
)

// Version is the format version this package writes. Readers reject files
// with a greater version; older versions remain readable as the format
// evolves.
const Version = 1

// Magic identifies a snapshot file.
const Magic = "FDSN"

// SectionFlagBinaryKeys marks a section whose keys are 16-byte addresses
// (the IP-NAME family's keys) rather than names (NAME-CNAME's). A restoring
// correlator applies a section only to the family that uses its key form:
// an IP-NAME section without the flag, or a NAME-CNAME section with it, is
// skipped.
const SectionFlagBinaryKeys = 1 << 0

// ErrCorrupt reports a structurally invalid or checksum-failing snapshot.
// Errors from Reader and Section wrap it; restore callers match with
// errors.Is and fall back to a cold start.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrVersion reports a snapshot written by a newer format version.
var ErrVersion = errors.New("snapshot: unsupported version")

// format frames snapshot files; its failpoints are snapshot.{write,sync,rename}.
// The smallest entry (empty key and value, then the expiry) is 1+1+8 bytes.
var format = frame.Format{Magic: Magic, Version: Version, HeaderMeta: 8, Marker: 'S', SectionMeta: 7,
	MinRecord: 1 + 1 + 8, Corrupt: ErrCorrupt, Unsupported: ErrVersion, Faults: frame.NewFaults("snapshot")}

// Section identifies one run of entries: which map family (the producer's
// own numbering — core uses 0 for IP-NAME, 1 for NAME-CNAME), which
// generation (0 active, 1 inactive, 2 long), which split it was written
// from, and whether the keys are binary (SectionFlagBinaryKeys). One store
// cell may span several Sections.
type Section struct {
	Family uint8
	Gen    uint8
	Flags  uint8
	Split  uint32
	Count  uint32

	payload []byte
}

// BinaryKeys reports whether the section's keys belong to the binary key
// space.
func (s *Section) BinaryKeys() bool { return s.Flags&SectionFlagBinaryKeys != 0 }

// ForEach decodes the section's entries in order. key and value alias the
// section's payload buffer and must not be retained past fn's return
// without a copy. fn's error aborts the walk and is returned verbatim.
func (s *Section) ForEach(fn func(key, value []byte, exp int64) error) error {
	p := s.payload
	for i := uint32(0); i < s.Count; i++ {
		key, rest, err := readBlob(p)
		if err != nil {
			return fmt.Errorf("%w: section entry %d key: %v", ErrCorrupt, i, err)
		}
		value, rest, err := readBlob(rest)
		if err != nil {
			return fmt.Errorf("%w: section entry %d value: %v", ErrCorrupt, i, err)
		}
		if len(rest) < 8 {
			return fmt.Errorf("%w: section entry %d: short expiry", ErrCorrupt, i)
		}
		exp := int64(binary.LittleEndian.Uint64(rest))
		p = rest[8:]
		if err := fn(key, value, exp); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes after %d entries", ErrCorrupt, len(p), s.Count)
	}
	return nil
}

// readBlob decodes one uvarint-length-prefixed byte string.
func readBlob(p []byte) (blob, rest []byte, err error) {
	n, used := binary.Uvarint(p)
	if used <= 0 || n > uint64(len(p)-used) {
		return nil, nil, errors.New("bad length prefix")
	}
	return p[used : used+int(n)], p[used+int(n):], nil
}

// Writer streams a snapshot: a file header up front, then sections opened
// with Begin and filled with Entry, then an end marker from Close. Entries
// accumulate in a reused payload buffer; a section that outgrows
// frame.MaxSection is flushed and transparently reopened with the same
// identity, so callers never worry about section sizing.
type Writer struct {
	fw      *frame.Writer
	cur     Section
	open    bool
	payload []byte
}

// NewWriter writes the file header to w and returns a Writer. created
// stamps the header (UnixNano; the caller supplies it so deterministic
// writers stay deterministic).
func NewWriter(w io.Writer, created int64) (*Writer, error) {
	var meta [8]byte
	binary.LittleEndian.PutUint64(meta[:], uint64(created))
	fw, err := format.NewWriter(w, 0, meta[:])
	if err != nil {
		return nil, err
	}
	return &Writer{fw: fw}, nil
}

// Begin opens a section. Any open section is flushed first.
func (w *Writer) Begin(family, gen, flags uint8, split uint32) error {
	if err := w.flushSection(); err != nil {
		return err
	}
	w.cur = Section{Family: family, Gen: gen, Flags: flags, Split: split}
	w.open = true
	return nil
}

// Entry appends one entry to the open section, rotating to a fresh section
// of the same identity when the payload is full. The key and value bytes
// are copied immediately.
func (w *Writer) Entry(key []byte, value string, exp int64) error {
	if !w.open {
		return errors.New("snapshot: Entry without Begin")
	}
	w.payload = append(binary.AppendUvarint(w.payload, uint64(len(key))), key...)
	w.payload = append(binary.AppendUvarint(w.payload, uint64(len(value))), value...)
	w.payload = binary.LittleEndian.AppendUint64(w.payload, uint64(exp))
	w.cur.Count++
	if len(w.payload) >= frame.MaxSection {
		return w.Begin(w.cur.Family, w.cur.Gen, w.cur.Flags, w.cur.Split)
	}
	return nil
}

// flushSection writes the open section, if any. Empty sections are elided.
func (w *Writer) flushSection() error {
	if !w.open {
		return nil
	}
	w.open = false
	if w.cur.Count == 0 {
		return nil
	}
	meta := [7]byte{w.cur.Family, w.cur.Gen, w.cur.Flags}
	binary.LittleEndian.PutUint32(meta[3:], w.cur.Split)
	err := w.fw.Section(meta[:], w.cur.Count, w.payload)
	w.payload = w.payload[:0]
	return err
}

// Close flushes the open section, writes the end marker, and flushes the
// underlying buffered writer. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if err := w.flushSection(); err != nil {
		return err
	}
	return w.fw.Close()
}

// Reader validates and iterates a snapshot stream.
type Reader struct{ fr *frame.Reader }

// NewReader validates the file header of r.
func NewReader(r io.Reader) (*Reader, error) {
	fr, err := format.NewReader(r)
	if err != nil {
		return nil, err
	}
	return &Reader{fr}, nil
}

// Created returns the header's creation stamp (UnixNano).
func (r *Reader) Created() int64 { return int64(binary.LittleEndian.Uint64(r.fr.Meta)) }

// Next returns the next section, or io.EOF after a valid end marker. Any
// other error means the file is corrupt or truncated; sections already
// returned were CRC-validated and are safe to have applied.
func (r *Reader) Next() (*Section, error) {
	meta, count, payload, err := r.fr.Next()
	if err != nil {
		return nil, err
	}
	return &Section{
		Family:  meta[0],
		Gen:     meta[1],
		Flags:   meta[2],
		Split:   binary.LittleEndian.Uint32(meta[3:]),
		Count:   count,
		payload: payload,
	}, nil
}

// WriteFile writes a snapshot atomically through frame's WriteFile: fill
// writes sections into a temporary file that replaces path only after
// Close succeeds. A crash mid-checkpoint leaves the previous snapshot
// intact; readers never observe a partial file.
func WriteFile(path string, created int64, fill func(*Writer) error) error {
	return format.WriteFile(path, func(f io.Writer) error {
		w, err := NewWriter(f, created)
		if err != nil {
			return err
		}
		if err := fill(w); err != nil {
			return err
		}
		return w.Close()
	})
}
