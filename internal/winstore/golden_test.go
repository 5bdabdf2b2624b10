package winstore

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dbl"
	"repro/internal/rollup"
)

// goldenSegment is the content of testdata/golden-v1.seg.gz: a compacted
// partition with two ordinary windows, one window large enough that the
// encoder rotates it into a second section of the same interval, and an
// empty window.
func goldenSegment() *Segment {
	base := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	big := rollup.Window{Start: base.Add(2 * time.Minute), Dur: time.Minute}
	service := strings.Repeat("y", 1<<16)
	for i := 0; i < 65; i++ { // 64 rows pass frame.MaxSection: one rotation
		big.Rows = append(big.Rows, rollup.Row{
			Key:      rollup.Key{Service: service, ASN: uint32(64500 + i), Category: dbl.Category(i % 6)},
			Counters: rollup.Counters{Bytes: uint64(1500 * i), Packets: uint64(i), Flows: 1},
		})
	}
	return &Segment{
		Start:     base,
		Dur:       time.Hour,
		Compacted: true,
		Windows: []rollup.Window{
			mkWindow(base, time.Minute, 5, 1),
			mkWindow(base.Add(time.Minute), time.Minute, 3, 2),
			big,
			{Start: base.Add(3 * time.Minute), Dur: time.Minute},
		},
	}
}

// readGolden returns the decompressed bytes of a testdata fixture.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSegmentGoldenFixture pins byte compatibility: testdata/golden-v1.seg.gz
// was written by an earlier build of this codec and must decode to
// goldenSegment, then re-encode to the very same bytes.
func TestSegmentGoldenFixture(t *testing.T) {
	data := readGolden(t, "golden-v1.seg.gz")
	got, err := DecodeSegment(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The oversized window arrives as two partials of one interval.
	want := goldenSegment()
	head, tail := want.Windows[2], want.Windows[2]
	head.Rows, tail.Rows = head.Rows[:64], tail.Rows[64:]
	want.Windows = append(want.Windows[:2], head, tail, want.Windows[3])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture decodes to %d windows (compacted=%v), want %d", len(got.Windows), got.Compacted, len(want.Windows))
	}
	if again := encodeSeg(t, got); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the fixture gives %d bytes that differ from its %d", len(again), len(data))
	}
}
