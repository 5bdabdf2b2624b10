package frame_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
	"repro/internal/frame/frametest"
)

var (
	errCorrupt = errors.New("test: corrupt")
	errVersion = errors.New("test: unsupported version")
)

// testFormat is a minimal format: header meta is one generation byte,
// section meta one tag byte, and records are single bytes.
var testFormat = frame.Format{Magic: "FDTS", Version: 1, HeaderMeta: 1, Marker: 'T', SectionMeta: 1,
	MinRecord: 1, Corrupt: errCorrupt, Unsupported: errVersion, Faults: frame.NewFaults("frame.test")}

// encode writes generation gen: sections tagged 1, 2 and 3+gen, each
// holding tag records of byte gen, then an empty section tagged 0.
func encode(w io.Writer, gen byte) error {
	fw, err := testFormat.NewWriter(w, 0, []byte{gen})
	if err != nil {
		return err
	}
	for _, tag := range []byte{1, 2, 3 + gen, 0} {
		if err := fw.Section([]byte{tag}, uint32(tag), bytes.Repeat([]byte{gen}, int(tag))); err != nil {
			return err
		}
	}
	return fw.Close()
}

// decode reads every section, checking each is shaped as encode writes it.
func decode(r io.Reader) error {
	fr, err := testFormat.NewReader(r)
	if err != nil {
		return err
	}
	for {
		meta, count, payload, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if count != uint32(meta[0]) || !bytes.Equal(payload, bytes.Repeat(fr.Meta, int(count))) {
			return errors.New("section differs from what was written")
		}
	}
}

func framed(t *testing.T) frametest.Format {
	var buf bytes.Buffer
	if err := encode(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return frametest.Format{
		Format: &testFormat,
		Valid:  buf.Bytes(),
		Decode: decode,
		WriteFile: func(path string, gen int) error {
			return testFormat.WriteFile(path, func(w io.Writer) error { return encode(w, byte(gen)) })
		},
	}
}

func TestCorruptionDetected(t *testing.T)      { frametest.Corruption(t, framed(t)) }
func TestVersionGate(t *testing.T)             { frametest.VersionGate(t, framed(t)) }
func TestOversizedClaimsRejected(t *testing.T) { frametest.OversizedClaims(t, framed(t)) }
func TestWriteFileFaultSweep(t *testing.T)     { frametest.FaultSweep(t, framed(t), 20) }

// TestTruncationDetected cuts a valid file at every length: each cut must
// be reported as corrupt, never accepted, never a panic.
func TestTruncationDetected(t *testing.T) {
	valid := framed(t).Valid
	if err := decode(bytes.NewReader(valid)); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	for cut := range valid {
		if err := decode(bytes.NewReader(valid[:cut])); !errors.Is(err, errCorrupt) {
			t.Fatalf("truncation at %d/%d bytes: err = %v, want corrupt", cut, len(valid), err)
		}
	}
}

// TestWriteFileAtomic checks WriteFile replaces a file wholesale, keeps it
// when encode fails midway, and leaves no temporary file either way.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	write := func(gen byte, fail error) error {
		return testFormat.WriteFile(path, func(w io.Writer) error {
			if err := encode(w, gen); err != nil || fail == nil {
				return err
			}
			return fail
		})
	}
	boom := errors.New("boom")
	for _, step := range []struct {
		gen     byte
		fail    error
		wantGen byte
	}{{1, nil, 1}, {2, nil, 2}, {3, boom, 2}} {
		if err := write(step.gen, step.fail); !errors.Is(err, step.fail) {
			t.Fatalf("write gen %d: err = %v, want %v", step.gen, err, step.fail)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		encode(&want, step.wantGen)
		if !bytes.Equal(data, want.Bytes()) {
			t.Fatalf("after writing gen %d: file is not gen %d", step.gen, step.wantGen)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("after writing gen %d: %d files in the directory, want 1", step.gen, len(entries))
		}
	}
}

// TestRemoveTemps plants the temporary siblings a killed WriteFile leaves
// and checks RemoveTemps deletes exactly those whose base it is given.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	stale := []string{"a[1].snap.tmp123", "a[1].snap.tmp", "p-1.seg.tmp9", "p-2.seg.tmp77"}
	keep := []string{"a[1].snap", "a1.snap.tmp4", "b.snap.tmp4", "p-1.seg", "notes.txt"}
	for _, name := range append(stale, keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, isBase := range []func(string) bool{
		func(base string) bool { return base == "a[1].snap" },
		func(base string) bool { return filepath.Ext(base) == ".seg" },
	} {
		if err := frame.RemoveTemps(dir, isBase); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived RemoveTemps", name)
		}
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("RemoveTemps removed %s", name)
		}
	}
}
