package snapshot

import (
	"testing"

	"repro/internal/frame/frametest"
)

// writeSnap checkpoints secs to path through WriteFile.
func writeSnap(path string, created int64, secs []testSection) error {
	return WriteFile(path, created, func(w *Writer) error {
		for _, s := range secs {
			if err := w.Begin(s.family, s.gen, s.flags, s.split); err != nil {
				return err
			}
			for _, e := range s.entries {
				if err := w.Entry([]byte(e.key), e.value, e.exp); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// framed describes the snapshot format to the shared framing suite.
func framed(t *testing.T) frametest.Format {
	gens := [2]struct {
		created int64
		secs    []testSection
	}{
		{111, []testSection{{family: 1, gen: 0, entries: []testEntry{
			{key: "203.0.113.7", value: "cdn.example", exp: 100},
			{key: "203.0.113.8", value: "video.example", exp: 120},
		}}}},
		{222, []testSection{{family: 1, gen: 1, entries: []testEntry{
			{key: "203.0.113.9", value: "mail.example", exp: 140},
		}}}},
	}
	return frametest.Format{
		Format: &format,
		Valid: encode(t, 9, []testSection{
			{family: 0, gen: 0, flags: SectionFlagBinaryKeys, split: 1, entries: []testEntry{
				{key: "0123456789abcdef", value: "a.example", exp: 99},
			}},
		}),
		Decode: readAll,
		WriteFile: func(path string, gen int) error {
			return writeSnap(path, gens[gen].created, gens[gen].secs)
		},
	}
}

// TestCheckpointFaultSweep proves a fault at any stage of WriteFile never
// loses the previous good checkpoint.
func TestCheckpointFaultSweep(t *testing.T) { frametest.FaultSweep(t, framed(t), 32) }
