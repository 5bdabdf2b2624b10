// Package frametest holds the framing checks every format built on
// internal/frame shares. Each format's tests run them against its own
// encoder, decoder and failpoints.
package frametest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/frame"
)

// Format is one framed format under test.
type Format struct {
	*frame.Format
	// Valid is a complete file whose first section is not empty.
	Valid []byte
	// Decode reads a whole file, every section payload included.
	Decode func(io.Reader) error
	// WriteFile writes generation gen (0 or 1) of the file to path through
	// the format's atomic writer, the same bytes every time.
	WriteFile func(path string, gen int) error
}

// Corruption flips one byte at a time through Valid: each flip must be
// reported as Corrupt or Unsupported.
func Corruption(t *testing.T, f Format) {
	for i := range f.Valid {
		mut := bytes.Clone(f.Valid)
		mut[i] ^= 0x40
		if err := f.Decode(bytes.NewReader(mut)); !errors.Is(err, f.Corrupt) && !errors.Is(err, f.Unsupported) {
			t.Fatalf("flip at byte %d: err = %v, want %v or %v", i, err, f.Corrupt, f.Unsupported)
		}
	}
}

// VersionGate bumps Valid's version, with the header CRC fixed up so only
// the version is wrong: the decoder must refuse it as Unsupported.
func VersionGate(t *testing.T, f Format) {
	data, crcAt := bytes.Clone(f.Valid), f.HeaderLen()-4
	binary.LittleEndian.PutUint16(data[4:6], f.Version+1)
	binary.LittleEndian.PutUint32(data[crcAt:], crc32.ChecksumIEEE(data[:crcAt]))
	if err := f.Decode(bytes.NewReader(data)); !errors.Is(err, f.Unsupported) {
		t.Fatalf("future version: err = %v, want %v", err, f.Unsupported)
	}
}

// OversizedClaims sets the first section's payload length, then its record
// count, to an absurd value. Each must be rejected as Corrupt from the
// section header alone: the input ends in a tripwire right after it, so a
// decoder that goes on to read the claimed payload fails the test.
func OversizedClaims(t *testing.T, f Format) {
	countAt, end := f.HeaderLen()+1+f.SectionMeta, f.HeaderLen()+f.SectionHeaderLen()
	for _, c := range []struct {
		at    int
		claim uint32
	}{{countAt + 4, 1 << 31}, {countAt, 1 << 30}} {
		mut := bytes.Clone(f.Valid[:end])
		binary.LittleEndian.PutUint32(mut[c.at:], c.claim)
		if err := f.Decode(io.MultiReader(bytes.NewReader(mut), tripwire{t})); !errors.Is(err, f.Corrupt) {
			t.Fatalf("claim %d at byte %d: err = %v, want %v", c.claim, c.at, err, f.Corrupt)
		}
	}
}

type tripwire struct{ t *testing.T }

func (w tripwire) Read([]byte) (int, error) {
	w.t.Fatal("decoder read past the header of an oversized section")
	return 0, io.EOF
}

// FaultSweep injects ENOSPC at each stage of the format's WriteFile, an I/O
// error at its fsync, and torn writes inside the file (at tornAt bytes) and
// before its header. Each must fail the write with its injection provenance
// and leave the previous generation decoding as before with no temporary
// file; once the one-shot budget is spent, the next write lands.
func FaultSweep(t *testing.T, f Format, tornAt int) {
	want := reference(t, f)
	write, sync, rename := f.Faults.Write.Name(), f.Faults.Sync.Name(), f.Faults.Rename.Name()
	for _, sw := range [][2]string{
		{write, "1*error(no space left on device)"},
		{write, fmt.Sprintf("1*shortwrite(%d)", tornAt)},
		{write, "1*shortwrite(0)"},
		{sync, "1*error(input/output error)"},
		{rename, "1*error(no space left on device)"},
	} {
		t.Run(sw[0]+"/"+sw[1], func(t *testing.T) {
			defer fault.DisableAll()
			path := filepath.Join(t.TempDir(), "file")
			if err := f.WriteFile(path, 0); err != nil {
				t.Fatalf("good write: %v", err)
			}
			if err := fault.Enable(sw[0], sw[1]); err != nil {
				t.Fatal(err)
			}
			if err := f.WriteFile(path, 1); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("faulted write: err = %v, want an injected fault", err)
			}
			published(t, f, path, want[0])
			if err := f.WriteFile(path, 1); err != nil {
				t.Fatalf("post-fault write: %v", err)
			}
			published(t, f, path, want[1])
		})
	}
}

// reference returns the bytes of each generation written to a fresh
// directory.
func reference(t *testing.T, f Format) (want [2][]byte) {
	for gen := range want {
		path := filepath.Join(t.TempDir(), "file")
		if err := f.WriteFile(path, gen); err != nil {
			t.Fatal(err)
		}
		want[gen], _ = os.ReadFile(path)
	}
	return want
}

// published fails unless path holds exactly want, a file that decodes, and
// is alone in its directory.
func published(t *testing.T, f Format, path string, want []byte) {
	t.Helper()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) || f.Decode(bytes.NewReader(got)) != nil {
		t.Fatalf("published file does not hold the expected generation (err %v)", err)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d files, want only the published one (err %v)", len(entries), err)
	}
}
