package winstore

import (
	"io"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/frame/frametest"
	"repro/internal/rollup"
)

// framed describes the segment format to the shared framing suite.
func framed(t *testing.T) frametest.Format {
	base := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	gens := [2]*Segment{
		{Start: base, Dur: time.Hour, Windows: []rollup.Window{mkWindow(base, time.Minute, 8, 1)}},
		{Start: base, Dur: time.Hour, Windows: []rollup.Window{
			mkWindow(base, time.Minute, 8, 1),
			mkWindow(base.Add(time.Minute), time.Minute, 6, 2),
		}},
	}
	return frametest.Format{
		Format: &format,
		Valid:  encodeSeg(t, testSegment()),
		Decode: func(r io.Reader) error {
			_, err := DecodeSegment(r)
			return err
		},
		WriteFile: func(path string, gen int) error { return WriteSegmentFile(path, gens[gen]) },
	}
}

// TestSegmentWriteFaultSweep proves a fault at any stage of
// WriteSegmentFile never loses the previous good generation.
func TestSegmentWriteFaultSweep(t *testing.T) { frametest.FaultSweep(t, framed(t), 64) }

// TestStoreSurvivesSegmentFaults proves the same invariant one layer up:
// a Store whose persist hits ENOSPC counts the error, keeps serving the
// in-memory windows, retries on the next Add, and a reopened Store sees
// the last good on-disk generation.
func TestStoreSurvivesSegmentFaults(t *testing.T) {
	defer fault.DisableAll()
	dir := t.TempDir()
	base := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	cfg := Config{Dir: dir, PartDur: time.Hour}

	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]rollup.Window{mkWindow(base, time.Minute, 4, 1)}); err != nil {
		t.Fatalf("good add: %v", err)
	}

	if err := fault.Enable("winstore.segment.write", "1*error(no space left on device)"); err != nil {
		t.Fatal(err)
	}
	err = s.Add([]rollup.Window{mkWindow(base.Add(time.Minute), time.Minute, 4, 2)})
	if err == nil {
		t.Fatal("faulted Add reported success")
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Fatalf("WriteErrors = %d, want 1", st.WriteErrors)
	}
	// The in-memory index still serves both windows despite the failed
	// persist.
	wins := s.Query(base, base.Add(time.Hour))
	if len(wins) != 2 {
		t.Fatalf("in-memory query returned %d windows, want 2", len(wins))
	}

	// Disk healed: the next Add re-persists the dirty partition, so a
	// reopened store sees everything.
	if err := s.Add([]rollup.Window{mkWindow(base.Add(2*time.Minute), time.Minute, 4, 3)}); err != nil {
		t.Fatalf("post-fault add: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wins = s2.Query(base, base.Add(time.Hour))
	if len(wins) != 3 {
		t.Fatalf("reopened store serves %d windows, want 3", len(wins))
	}
}
