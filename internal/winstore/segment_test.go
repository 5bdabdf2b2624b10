package winstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/dbl"
	"repro/internal/frame/frametest"
	"repro/internal/rollup"
)

// mkWindow builds a deterministic sealed window: n rows with distinct keys
// and seeded counters, canonically sorted as the rollup engine seals them.
func mkWindow(start time.Time, dur time.Duration, n int, seed int64) rollup.Window {
	rng := rand.New(rand.NewSource(seed))
	w := rollup.Window{Start: start.UTC(), Dur: dur}
	services := []string{"", "cdn.example", "video.example", "mail.example", "ads.example"}
	for i := 0; i < n; i++ {
		w.Rows = append(w.Rows, rollup.Row{
			Key: rollup.Key{
				Service:  services[i%len(services)],
				ASN:      uint32(64500 + i),
				Category: dbl.Category(i % 6),
			},
			Counters: rollup.Counters{
				Bytes:   uint64(rng.Intn(1 << 30)),
				Packets: uint64(rng.Intn(1 << 20)),
				Flows:   uint64(1 + rng.Intn(1000)),
			},
		})
	}
	// Canonical order, as SealBefore produces.
	return rollup.MergeAll([]rollup.Window{w})
}

func encodeSeg(t *testing.T, seg *Segment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, seg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testSegment() *Segment {
	base := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	return &Segment{
		Start: base,
		Dur:   time.Hour,
		Windows: []rollup.Window{
			mkWindow(base, time.Minute, 5, 1),
			mkWindow(base.Add(time.Minute), time.Minute, 3, 2),
			// A partial of the first interval: late flows re-opened it.
			mkWindow(base, time.Minute, 2, 3),
			// An empty window must round-trip too.
			{Start: base.Add(2 * time.Minute), Dur: time.Minute},
		},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	seg := testSegment()
	got, err := DecodeSegment(bytes.NewReader(encodeSeg(t, seg)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Start.Equal(seg.Start) || got.Dur != seg.Dur || got.Compacted != seg.Compacted {
		t.Fatalf("header mismatch: got %v/%v/%v", got.Start, got.Dur, got.Compacted)
	}
	if !reflect.DeepEqual(got.Windows, seg.Windows) {
		t.Fatalf("windows mismatch:\n got %+v\nwant %+v", got.Windows, seg.Windows)
	}
}

func TestSegmentCompactedFlagRoundTrip(t *testing.T) {
	seg := testSegment()
	seg.Compacted = true
	got, err := DecodeSegment(bytes.NewReader(encodeSeg(t, seg)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Compacted {
		t.Fatal("compacted flag lost")
	}
}

// TestSegmentTruncationKeepsValidatedPrefix cuts a valid segment at every
// possible length: the decoder must always report corruption (crash-mid-
// write detection) while returning exactly the sections it CRC-validated —
// never more, never a panic.
func TestSegmentTruncationKeepsValidatedPrefix(t *testing.T) {
	seg := testSegment()
	data := encodeSeg(t, seg)
	if _, err := DecodeSegment(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		got, err := DecodeSegment(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes went undetected", cut, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
		if got == nil {
			continue // header never validated; nothing to keep
		}
		// Every window the prefix decode returned must be byte-identical to
		// the corresponding original window: validated prefix, no garbage.
		if len(got.Windows) > len(seg.Windows) {
			t.Fatalf("truncation at %d: %d windows from a %d-window file", cut, len(got.Windows), len(seg.Windows))
		}
		for i := range got.Windows {
			if !reflect.DeepEqual(got.Windows[i], seg.Windows[i]) {
				t.Fatalf("truncation at %d: window %d diverges from original", cut, i)
			}
		}
	}
}

func TestSegmentCorruptionDetected(t *testing.T)      { frametest.Corruption(t, framed(t)) }
func TestSegmentVersionGate(t *testing.T)             { frametest.VersionGate(t, framed(t)) }
func TestSegmentOversizedClaimsRejected(t *testing.T) { frametest.OversizedClaims(t, framed(t)) }

// TestSegmentSectionRotation forces a window whose encoding exceeds the
// section payload limit and checks it splits into partials that merge back
// to the original.
func TestSegmentSectionRotation(t *testing.T) {
	base := time.Date(2022, 5, 25, 0, 0, 0, 0, time.UTC)
	// ~160k rows at ~30 bytes each ≈ 5 MB > frame.MaxSection.
	big := rollup.Window{Start: base, Dur: time.Minute}
	for i := 0; i < 160_000; i++ {
		big.Rows = append(big.Rows, rollup.Row{
			Key:      rollup.Key{Service: "svc.example", ASN: uint32(i)},
			Counters: rollup.Counters{Bytes: uint64(i), Packets: 1, Flows: 1},
		})
	}
	seg := &Segment{Start: base, Dur: time.Hour, Windows: []rollup.Window{big}}
	got, err := DecodeSegment(bytes.NewReader(encodeSeg(t, seg)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Windows) < 2 {
		t.Fatalf("expected rotation into >= 2 sections, got %d", len(got.Windows))
	}
	merged := CompactWindows(got.Windows)
	if len(merged) != 1 {
		t.Fatalf("partials merge to %d windows, want 1", len(merged))
	}
	want := rollup.MergeAll([]rollup.Window{big})
	if !reflect.DeepEqual(merged[0], want) {
		t.Fatal("rotated window does not merge back to the original")
	}
}

func TestWriteSegmentFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "part-0-3600.seg")
	seg := testSegment()
	if err := WriteSegmentFile(path, seg); err != nil {
		t.Fatal(err)
	}
	// Overwrite with different contents: the rename must replace wholesale.
	seg2 := testSegment()
	seg2.Compacted = true
	seg2.Windows = seg2.Windows[:1]
	if err := WriteSegmentFile(path, seg2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Compacted || len(got.Windows) != 1 {
		t.Fatalf("overwrite not atomic: %+v", got)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}
