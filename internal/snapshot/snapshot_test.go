package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame/frametest"
)

// testEntry is one (section identity, key, value, exp) tuple used to build
// and verify snapshots.
type testEntry struct {
	key   string
	value string
	exp   int64
}

type testSection struct {
	family, gen, flags uint8
	split              uint32
	entries            []testEntry
}

// encode writes the sections through the Writer and returns the file bytes.
func encode(t *testing.T, created int64, secs []testSection) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, created)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if err := w.Begin(s.family, s.gen, s.flags, s.split); err != nil {
			t.Fatal(err)
		}
		for _, e := range s.entries {
			if err := w.Entry([]byte(e.key), e.value, e.exp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode reads everything back, flattening rotated sections by identity.
func decode(t *testing.T, data []byte) (int64, map[string][]testEntry) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]testEntry)
	for {
		sec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("%d/%d/%d/%d", sec.Family, sec.Gen, sec.Flags, sec.Split)
		err = sec.ForEach(func(key, value []byte, exp int64) error {
			out[id] = append(out[id], testEntry{key: string(key), value: string(value), exp: exp})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return r.Created(), out
}

func TestRoundTrip(t *testing.T) {
	secs := []testSection{
		{family: 0, gen: 0, flags: SectionFlagBinaryKeys, split: 3, entries: []testEntry{
			{key: "0123456789abcdef", value: "svc.example", exp: 12345},
			{key: "fedcba9876543210", value: "", exp: 0},
		}},
		{family: 1, gen: 2, split: 0, entries: []testEntry{
			{key: "edge.cdn.example", value: "svc.example", exp: -7},
			{key: "", value: "v", exp: 1 << 60},
		}},
		{family: 0, gen: 1, split: 9, entries: nil}, // empty: elided entirely
	}
	data := encode(t, 42, secs)
	created, got := decode(t, data)
	if created != 42 {
		t.Fatalf("created = %d, want 42", created)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d section identities, want 2 (empty elided): %v", len(got), got)
	}
	for _, want := range secs[:2] {
		id := fmt.Sprintf("%d/%d/%d/%d", want.family, want.gen, want.flags, want.split)
		if len(got[id]) != len(want.entries) {
			t.Fatalf("section %s: %d entries, want %d", id, len(got[id]), len(want.entries))
		}
		for i, e := range want.entries {
			if got[id][i] != e {
				t.Fatalf("section %s entry %d = %+v, want %+v", id, i, got[id][i], e)
			}
		}
	}
}

// TestSectionRotation checks that a cell larger than frame.MaxSection is
// split across several sections with the same identity and that every entry
// survives.
func TestSectionRotation(t *testing.T) {
	value := string(bytes.Repeat([]byte{'x'}, 1<<16))
	const n = 80 // 80 * 64KiB = 5 MiB > frame.MaxSection (4 MiB)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(0, 0, 0, 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Entry([]byte(fmt.Sprintf("key-%03d", i)), value, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sections, entries := 0, 0
	for {
		sec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sec.Family != 0 || sec.Gen != 0 || sec.Split != 7 {
			t.Fatalf("rotated section changed identity: %+v", sec)
		}
		sections++
		err = sec.ForEach(func(key, value []byte, exp int64) error {
			if exp != int64(entries) {
				return fmt.Errorf("entry order broken: exp %d at position %d", exp, entries)
			}
			entries++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if sections < 2 {
		t.Fatalf("expected rotation to produce >1 section, got %d", sections)
	}
	if entries != n {
		t.Fatalf("decoded %d entries, want %d", entries, n)
	}
}

// readAll fully consumes a snapshot stream, returning the first error.
func readAll(rd io.Reader) error {
	r, err := NewReader(rd)
	if err != nil {
		return err
	}
	for {
		sec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := sec.ForEach(func(key, value []byte, exp int64) error { return nil }); err != nil {
			return err
		}
	}
}

// TestTruncationDetected cuts a valid snapshot at every possible length and
// requires the reader to report corruption (never succeed, never panic) —
// the crash-mid-write detection the atomic rename backs up.
func TestTruncationDetected(t *testing.T) {
	data := encode(t, 9, []testSection{
		{family: 0, gen: 0, flags: SectionFlagBinaryKeys, split: 1, entries: []testEntry{
			{key: "0123456789abcdef", value: "a.example", exp: 99},
		}},
		{family: 1, gen: 0, split: 0, entries: []testEntry{
			{key: "cname.example", value: "svc.example", exp: 0},
		}},
	})
	if err := readAll(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := readAll(bytes.NewReader(data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d/%d bytes: err = %v, want ErrCorrupt", cut, len(data), err)
		}
	}
}

func TestCorruptionDetected(t *testing.T)      { frametest.Corruption(t, framed(t)) }
func TestVersionGate(t *testing.T)             { frametest.VersionGate(t, framed(t)) }
func TestOversizedClaimsRejected(t *testing.T) { frametest.OversizedClaims(t, framed(t)) }

func TestEntryWithoutBegin(t *testing.T) {
	w, err := NewWriter(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Entry([]byte("k"), "v", 0); err == nil {
		t.Fatal("Entry before Begin succeeded")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snapshot")

	// First write succeeds.
	err := WriteFile(path, 1, func(w *Writer) error {
		if err := w.Begin(0, 0, 0, 0); err != nil {
			return err
		}
		return w.Entry([]byte("k"), "v1", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Second write fails mid-fill: the first file must survive untouched
	// and no temp litter may remain.
	boom := errors.New("boom")
	err = WriteFile(path, 2, func(w *Writer) error {
		if err := w.Begin(0, 0, 0, 0); err != nil {
			return err
		}
		if err := w.Entry([]byte("k"), "v2", 0); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fill error not propagated: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, after) {
		t.Fatal("failed checkpoint damaged the previous snapshot")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp file left behind: %v", ents)
	}
}

// TestRandomRoundTrip drives the codec with generated section layouts and
// entry shapes (empty keys, long values, negative and boundary expiries).
func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var secs []testSection
		for s := rng.Intn(6); s >= 0; s-- {
			sec := testSection{
				family: uint8(rng.Intn(2)),
				gen:    uint8(rng.Intn(3)),
				flags:  uint8(rng.Intn(2)), // SectionFlagBinaryKeys or none
				split:  uint32(rng.Intn(16)),
			}
			for e := rng.Intn(50); e >= 0; e-- {
				key := make([]byte, rng.Intn(40))
				val := make([]byte, rng.Intn(200))
				rng.Read(key)
				rng.Read(val)
				sec.entries = append(sec.entries, testEntry{
					key: string(key), value: string(val), exp: rng.Int63() - rng.Int63(),
				})
			}
			secs = append(secs, sec)
		}
		data := encode(t, int64(trial), secs)
		if err := readAll(bytes.NewReader(data)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, got := decode(t, data)
		want := make(map[string][]testEntry)
		for _, s := range secs {
			if len(s.entries) == 0 {
				continue
			}
			id := fmt.Sprintf("%d/%d/%d/%d", s.family, s.gen, s.flags, s.split)
			want[id] = append(want[id], s.entries...)
		}
		for id, entries := range want {
			if len(got[id]) != len(entries) {
				t.Fatalf("trial %d section %s: %d entries, want %d", trial, id, len(got[id]), len(entries))
			}
			for i := range entries {
				if got[id][i] != entries[i] {
					t.Fatalf("trial %d section %s entry %d mismatch", trial, id, i)
				}
			}
		}
	}
}
