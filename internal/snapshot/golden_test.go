package snapshot

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenCreated stamps the header of testdata/golden-v1.snap.gz.
const goldenCreated = 1653480000000000000

// goldenSections is the content of testdata/golden-v1.snap.gz: both key
// spaces, both families, three generations, and one cell large enough
// that the writer rotates it into a second section of the same identity.
func goldenSections() []testSection {
	v4 := func(a, b, c, d byte) string {
		return string([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, a, b, c, d})
	}
	secs := []testSection{
		{family: 0, gen: 0, flags: SectionFlagBinaryKeys, split: 1, entries: []testEntry{
			{key: v4(203, 0, 113, 7), value: "cdn.example", exp: 1653480060000000000},
			{key: v4(198, 51, 100, 9), value: "video.example", exp: 0},
		}},
		{family: 0, gen: 2, split: 0, entries: []testEntry{
			{key: "legacy-key", value: "mail.example", exp: -1},
		}},
		{family: 1, gen: 1, split: 3, entries: []testEntry{
			{key: "edge.cdn.example", value: "cdn.example", exp: 1653480120000000000},
			{key: "", value: "", exp: 1},
		}},
	}
	big := testSection{family: 1, gen: 0, split: 2}
	value := strings.Repeat("x", 1<<16)
	for i := 0; i < 65; i++ { // 64 entries pass frame.MaxSection: one rotation
		big.entries = append(big.entries, testEntry{key: fmt.Sprintf("alias-%03d.example", i), value: value, exp: int64(i)})
	}
	return append(secs, big)
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

// TestGoldenFixture pins byte compatibility: testdata/golden-v1.snap.gz was
// written by an earlier build of this codec and must decode to
// goldenSections, then re-encode to the very same bytes.
func TestGoldenFixture(t *testing.T) {
	data := readGolden(t, "golden-v1.snap.gz")
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []testSection
	for {
		sec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ts := testSection{family: sec.Family, gen: sec.Gen, flags: sec.Flags, split: sec.Split}
		err = sec.ForEach(func(key, value []byte, exp int64) error {
			ts.entries = append(ts.entries, testEntry{key: string(key), value: string(value), exp: exp})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ts)
	}
	// The oversized cell arrives as two sections of one identity.
	want := goldenSections()
	head, tail := want[len(want)-1], want[len(want)-1]
	head.entries, tail.entries = head.entries[:64], tail.entries[64:]
	want = append(want[:len(want)-1], head, tail)
	if r.Created() != goldenCreated || !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture decodes to created=%d, %d sections; want %d, %d", r.Created(), len(got), int64(goldenCreated), len(want))
	}
	if again := encode(t, goldenCreated, got); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the fixture gives %d bytes that differ from its %d", len(again), len(data))
	}
}
