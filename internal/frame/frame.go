// Package frame owns the framing of FlowDNS's durable files (the snapshot
// checkpoint and the window-store segment): layout, checksums, allocation
// bounds and the atomic write. A format supplies only its magic, its header
// and section meta, and its payload encoding.
//
//	header : magic [4] | version u16 | flags u16 | meta | crc u32
//	section: marker u8 | meta | count u32 | payloadLen u32 | crc u32 | payload
//	end    : 'E' | sections u32 | crc u32
//
// Integers are little-endian; meta lengths are fixed per Format. Every
// region carries a CRC32 (IEEE) — the header over its preceding bytes, a
// section over its header between marker and CRC plus its payload, the end
// marker over its first 5 bytes — so any single corrupted byte is detected,
// and a missing end marker tells a truncated file from a complete one.
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// MaxSection bounds one section's payload: writers start a fresh section
// once a payload reaches it. Before allocating, readers reject a claimed
// length above twice it, or a count of records that cannot fit the claimed
// length at Format.MinRecord bytes each.
const MaxSection = 1 << 22

const endMarker = 'E'

// Format describes one framed file format.
type Format struct {
	Magic       string // four bytes identifying the file
	Version     uint16 // the version written; readers reject greater ones
	HeaderMeta  int    // bytes of header meta
	Marker      byte   // section marker
	SectionMeta int    // bytes of section meta, before count
	MinRecord   int    // smallest encoded record, for the count bound
	// Corrupt and Unsupported are the sentinels decode errors wrap.
	Corrupt, Unsupported error
	Faults               Faults
}

// Faults are WriteFile's failpoints, each landing on the temporary file:
// Write covers the encode (shortwrite tears it), Sync the fsync, Rename the
// publish.
type Faults struct{ Write, Sync, Rename *fault.Point }

// NewFaults registers the failpoints prefix.{write,sync,rename}.
func NewFaults(prefix string) Faults {
	return Faults{fault.New(prefix + ".write"), fault.New(prefix + ".sync"), fault.New(prefix + ".rename")}
}

// HeaderLen and SectionHeaderLen are the lengths of the file header and of
// a section header, marker and CRC included.
func (f *Format) HeaderLen() int        { return 12 + f.HeaderMeta }
func (f *Format) SectionHeaderLen() int { return 13 + f.SectionMeta }

func (f *Format) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{f.Corrupt}, args...)...)
}

// Writer streams one framed file through a buffered writer: the header on
// creation, one Section call per section, the end marker on Close.
type Writer struct {
	w        *bufio.Writer
	hdr      []byte // scratch
	sections uint32
}

// NewWriter writes f's file header, carrying flags and meta, to w.
func (f *Format) NewWriter(w io.Writer, flags uint16, meta []byte) (*Writer, error) {
	fw := &Writer{w: bufio.NewWriterSize(w, 1<<16), hdr: make([]byte, max(f.HeaderLen(), f.SectionHeaderLen()))}
	hdr := binary.LittleEndian.AppendUint16(append(fw.hdr[:0], f.Magic...), f.Version)
	hdr = append(binary.LittleEndian.AppendUint16(hdr, flags), meta...)
	if _, err := fw.w.Write(binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))); err != nil {
		return nil, err
	}
	fw.hdr[0] = f.Marker
	return fw, nil
}

// Section writes one section; the caller may reuse payload afterwards.
func (w *Writer) Section(meta []byte, count uint32, payload []byte) error {
	n := 1 + copy(w.hdr[1:], meta)
	binary.LittleEndian.PutUint32(w.hdr[n:], count)
	binary.LittleEndian.PutUint32(w.hdr[n+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[n+8:], sectionCRC(w.hdr[:n+8], payload))
	if _, err := w.w.Write(w.hdr[:n+12]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.sections++
	return nil
}

// Close writes the end marker and flushes; the Writer is then unusable.
func (w *Writer) Close() error {
	end := binary.LittleEndian.AppendUint32(append(w.hdr[:0], endMarker), w.sections)
	if _, err := w.w.Write(binary.LittleEndian.AppendUint32(end, crc32.ChecksumIEEE(end))); err != nil {
		return err
	}
	return w.w.Flush()
}

// sectionCRC covers a section header after its marker, then the payload.
func sectionCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr[1:]), crc32.IEEETable, payload)
}

// Reader validates and iterates one framed file, a section at a time.
type Reader struct {
	// Flags and Meta are the validated file header's fields.
	Flags uint16
	Meta  []byte

	f        *Format
	r        *bufio.Reader
	hdr      []byte // section header scratch
	sections uint32
	done     bool
}

// NewReader validates f's file header at the start of r.
func (f *Format) NewReader(r io.Reader) (*Reader, error) {
	fr := &Reader{f: f, r: bufio.NewReaderSize(r, 1<<16), hdr: make([]byte, f.SectionHeaderLen())}
	hdr := make([]byte, f.HeaderLen())
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return nil, f.corrupt("short header: %v", err)
	}
	if string(hdr[:4]) != f.Magic {
		return nil, f.corrupt("bad magic %q", hdr[:4])
	}
	crcAt := len(hdr) - 4
	if got, want := binary.LittleEndian.Uint32(hdr[crcAt:]), crc32.ChecksumIEEE(hdr[:crcAt]); got != want {
		return nil, f.corrupt("header crc %08x != %08x", got, want)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v > f.Version {
		return nil, fmt.Errorf("%w: file version %d > %d", f.Unsupported, v, f.Version)
	}
	fr.Flags, fr.Meta = binary.LittleEndian.Uint16(hdr[6:8]), hdr[8:crcAt]
	return fr, nil
}

// Next returns the next section's meta, record count and payload, or io.EOF
// after a valid end marker. meta aliases a buffer the next call overwrites;
// payload is freshly allocated. Any other error wraps Format.Corrupt: the
// file is damaged or truncated, and only the sections already returned,
// each CRC-validated, are safe to use.
func (r *Reader) Next() (meta []byte, count uint32, payload []byte, err error) {
	f, hdr := r.f, r.hdr
	if r.done {
		return nil, 0, nil, io.EOF
	}
	if hdr[0], err = r.r.ReadByte(); err != nil {
		return nil, 0, nil, f.corrupt("missing end marker: %v", err)
	}
	if hdr[0] == endMarker {
		return nil, 0, nil, r.end()
	}
	if hdr[0] != f.Marker {
		return nil, 0, nil, f.corrupt("unknown marker %#02x", hdr[0])
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return nil, 0, nil, f.corrupt("short section header: %v", err)
	}
	n := 1 + f.SectionMeta
	count = binary.LittleEndian.Uint32(hdr[n:])
	payloadLen := binary.LittleEndian.Uint32(hdr[n+4:])
	// Writers never produce an oversized or under-filled section, so such
	// claims are corruption (or a fuzzer), never a reason to allocate.
	if payloadLen > 2*MaxSection {
		return nil, 0, nil, f.corrupt("section payload %d exceeds limit", payloadLen)
	}
	if uint64(count)*uint64(f.MinRecord) > uint64(payloadLen) {
		return nil, 0, nil, f.corrupt("%d records cannot fit %d payload bytes", count, payloadLen)
	}
	payload = make([]byte, payloadLen)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, 0, nil, f.corrupt("short section payload: %v", err)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[n+8:]), sectionCRC(hdr[:n+8], payload); got != want {
		return nil, 0, nil, f.corrupt("section crc %08x != %08x", got, want)
	}
	r.sections++
	return hdr[1:n], count, payload, nil
}

// end validates the end marker whose first byte Next consumed.
func (r *Reader) end() error {
	var end [9]byte
	if _, err := io.ReadFull(r.r, end[1:]); err != nil {
		return r.f.corrupt("short end marker: %v", err)
	}
	end[0] = endMarker
	if got, want := binary.LittleEndian.Uint32(end[5:]), crc32.ChecksumIEEE(end[:5]); got != want {
		return r.f.corrupt("end crc %08x != %08x", got, want)
	}
	if got := binary.LittleEndian.Uint32(end[1:5]); got != r.sections {
		return r.f.corrupt("end marker counts %d sections, read %d", got, r.sections)
	}
	r.done = true
	return io.EOF
}

// WriteFile publishes a file at path atomically: encode writes a temporary
// sibling, which is fsynced and renamed over path only once encode succeeds,
// then the directory is fsynced. Any failure removes the temporary file:
// readers never observe a partial file, and the previous one stays intact.
func (f *Format) WriteFile(path string, encode func(io.Writer) error) (err error) {
	if err = f.Faults.Write.Inject(); err != nil {
		return err
	}
	tf, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tf.Close()
			os.Remove(tf.Name())
		}
	}()
	// Encode, fsync, close, publish: each failpoint fires ahead of its stage.
	for _, step := range []func() error{
		func() error { return encode(f.Faults.Write.Writer(tf)) },
		f.Faults.Sync.Inject, tf.Sync, tf.Close,
		f.Faults.Rename.Inject, func() error { return os.Rename(tf.Name(), path) },
	} {
		if err = step(); err != nil {
			return err
		}
	}
	// Without this, a power cut can roll the rename back.
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// RemoveTemps deletes the "<base>.tmp*" files WriteFile leaves in dir when
// its process dies between creating and renaming one, for every <base> that
// isBase accepts. Call it before any writer in dir starts.
func RemoveTemps(dir string, isBase func(base string) bool) error {
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		if i := strings.LastIndex(e.Name(), ".tmp"); i >= 0 && !e.IsDir() && isBase(e.Name()[:i]) {
			if rerr := os.Remove(filepath.Join(dir, e.Name())); err == nil {
				err = rerr
			}
		}
	}
	return err
}
