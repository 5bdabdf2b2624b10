package core

// Contract tests for the v2 Sink interface: concurrent WriteBatch safety,
// error propagation from a failing sink through Run, and Flush/Close
// ordering during the graceful drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncWriter serializes writes so bytes.Buffer can sit under a sink that
// is hammered concurrently.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// hammer runs workers goroutines, each writing batches records through
// sink, and fails the test on any error.
func hammer(t *testing.T, sink Sink, workers, batches, perBatch int) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]CorrelatedFlow, perBatch)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = CorrelatedFlow{
						Flow: flow(t0, fmt.Sprintf("198.51.%d.%d", w, i%250+1), 10),
						Name: fmt.Sprintf("svc%d.example", w), Tier: TierActive,
					}
				}
				if err := sink.WriteBatch(ctx, batch); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestTSVSinkConcurrentWriteBatch(t *testing.T) {
	var w syncWriter
	sink := NewTSVSink(&w)
	const workers, batches, perBatch = 8, 50, 16
	hammer(t, sink, workers, batches, perBatch)
	lines := strings.Split(strings.TrimSpace(w.String()), "\n")
	if len(lines) != workers*batches*perBatch {
		t.Fatalf("lines = %d, want %d", len(lines), workers*batches*perBatch)
	}
	// Every line must be a complete, untorn row (8 fields).
	for i, line := range lines {
		if got := strings.Count(line, "\t"); got != 7 {
			t.Fatalf("line %d torn: %q", i, line)
		}
	}
}

func TestCountingSinkConcurrentWriteBatch(t *testing.T) {
	sink := NewCountingSink()
	const workers, batches, perBatch = 8, 50, 16
	hammer(t, sink, workers, batches, perBatch)
	var total uint64
	for _, n := range sink.Flows() {
		total += n
	}
	if total != workers*batches*perBatch {
		t.Fatalf("flows = %d, want %d", total, workers*batches*perBatch)
	}
}

func TestMultiSinkConcurrentWriteBatch(t *testing.T) {
	a, b := NewCountingSink(), NewCountingSink()
	var w syncWriter
	sink := MultiSink{a, NewTSVSink(&w), b}
	const workers, batches, perBatch = 4, 30, 8
	hammer(t, sink, workers, batches, perBatch)
	if av, bv := a.Flows(), b.Flows(); len(av) != workers || len(bv) != workers {
		t.Fatalf("fan-out uneven: %d vs %d names", len(av), len(bv))
	}
}

func TestJSONSinkWritesValidLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONSink(&buf)
	err := sink.WriteBatch(context.Background(), []CorrelatedFlow{
		{Flow: flow(t0, "198.51.100.7", 1234), Name: "svc.example", Tier: TierActive, ChainLen: 2},
		{Flow: flow(t0, "198.51.100.8", 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if row["name"] != "svc.example" || row["tier"] != "active" || row["bytes"] != float64(1234) {
		t.Fatalf("row = %v", row)
	}
	// The miss row has no name/tier keys (omitempty).
	if strings.Contains(lines[1], "name") || strings.Contains(lines[1], "tier") {
		t.Fatalf("miss row carries empty fields: %q", lines[1])
	}
}

// failingSink errors after failAfter batches and records lifecycle order.
type failingSink struct {
	mu        sync.Mutex
	batches   int
	failAfter int
	calls     []string
}

func (s *failingSink) WriteBatch(_ context.Context, batch []CorrelatedFlow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	if s.batches > s.failAfter {
		return errors.New("disk full")
	}
	return nil
}

func (s *failingSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, "flush")
	return nil
}

func (s *failingSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, "close")
	return nil
}

func TestRunPropagatesSinkError(t *testing.T) {
	sink := &failingSink{failAfter: 0} // first batch fails
	c := New(DefaultConfig(), WithSink(sink))
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(context.Background()) }()
	// Feed until Run notices the failure and shuts itself down — no
	// cancellation from our side.
	offerDNS(c, aRec(t0, "svc.example", "198.51.100.80", 300))
	deadline := time.After(5 * time.Second)
feed:
	for {
		select {
		case err := <-runDone:
			if err == nil || !strings.Contains(err.Error(), "disk full") {
				t.Fatalf("Run = %v, want disk full", err)
			}
			break feed
		case <-deadline:
			t.Fatal("Run did not return after sink failure")
		default:
			offerFlow(c, flow(t0.Add(time.Second), "198.51.100.80", 10))
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Flush and Close still ran, in order, exactly once each.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.calls) != 2 || sink.calls[0] != "flush" || sink.calls[1] != "close" {
		t.Fatalf("lifecycle calls = %v, want [flush close]", sink.calls)
	}
}

// orderSink records the interleaving of writes and lifecycle calls.
type orderSink struct {
	mu      sync.Mutex
	calls   []string
	written atomic.Uint64
}

func (s *orderSink) WriteBatch(_ context.Context, batch []CorrelatedFlow) error {
	s.written.Add(uint64(len(batch)))
	s.mu.Lock()
	s.calls = append(s.calls, "write")
	s.mu.Unlock()
	return nil
}

func (s *orderSink) Flush() error {
	s.mu.Lock()
	s.calls = append(s.calls, "flush")
	s.mu.Unlock()
	return nil
}

func (s *orderSink) Close() error {
	s.mu.Lock()
	s.calls = append(s.calls, "close")
	s.mu.Unlock()
	return nil
}

func TestRunFlushCloseOrderingOnDrain(t *testing.T) {
	sink := &orderSink{}
	c := New(DefaultConfig(), WithSink(sink))
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()
	offerDNS(c, aRec(t0, "svc.example", "198.51.100.81", 300))
	for c.Stats().DNSRecords < 1 {
		time.Sleep(time.Millisecond)
	}
	const flows = 100
	for i := 0; i < flows; i++ {
		offerFlow(c, flow(t0.Add(time.Second), "198.51.100.81", 10))
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}
	if got := sink.written.Load(); got != flows {
		t.Fatalf("sink saw %d records, want %d (drain incomplete)", got, flows)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	n := len(sink.calls)
	// Contract: partial batches may interleave write/flush, but the run
	// ends with flush then close, close happens exactly once and last,
	// and every write precedes it.
	if n < 3 || sink.calls[n-2] != "flush" || sink.calls[n-1] != "close" {
		t.Fatalf("calls = %v, want ... flush close", sink.calls)
	}
	for i, call := range sink.calls {
		if call == "close" && i != n-1 {
			t.Fatalf("close before end of drain: %v", sink.calls)
		}
		if call == "write" && i > n-2 {
			t.Fatalf("write after lifecycle end: %v", sink.calls)
		}
	}
}

func TestSinkRegistry(t *testing.T) {
	names := SinkNames()
	for _, want := range []string{"counting", "discard", "json", "multi", "tsv"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %q: %v", want, names)
		}
	}
	var buf bytes.Buffer
	s, err := NewSinkByName("tsv", SinkOptions{W: &buf, SkipMisses: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.(*TSVSink).SkipMisses != true {
		t.Fatal("SkipMisses not applied")
	}
	// Empty name defaults to tsv.
	if s, err := NewSinkByName("", SinkOptions{W: &buf}); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*TSVSink); !ok {
		t.Fatalf("default sink = %T", s)
	}
	if _, err := NewSinkByName("tsv", SinkOptions{}); err == nil {
		t.Fatal("tsv without writer accepted")
	}
	if _, err := NewSinkByName("bogus", SinkOptions{}); err == nil {
		t.Fatal("unknown sink accepted")
	}
	if _, err := NewSinkByName("multi", SinkOptions{}); err == nil {
		t.Fatal("multi without children accepted")
	}
	m, err := NewSinkByName("multi", SinkOptions{Children: []Sink{NewCountingSink(), DiscardSink{}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.(MultiSink)) != 2 {
		t.Fatalf("multi = %T %v", m, m)
	}
	// Custom registration is visible and constructible.
	RegisterSink("test-null", false, func(SinkOptions) (Sink, error) { return DiscardSink{}, nil })
	if s, err := NewSinkByName("test-null", SinkOptions{}); err != nil || s == nil {
		t.Fatalf("custom sink: %v", err)
	}
}
