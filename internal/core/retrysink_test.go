package core

import (
	"context"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/netflow"
)

// flakySink fails WriteBatch while down, recording everything it accepts.
type flakySink struct {
	mu       sync.Mutex
	down     bool
	failures int
	accepted []CorrelatedFlow
	flushes  int
	closed   bool
}

func (s *flakySink) WriteBatch(_ context.Context, batch []CorrelatedFlow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		s.failures++
		return errors.New("endpoint down")
	}
	s.accepted = append(s.accepted, batch...)
	return nil
}

func (s *flakySink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes++
	if s.down {
		return errors.New("endpoint down")
	}
	return nil
}

func (s *flakySink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *flakySink) setDown(v bool) {
	s.mu.Lock()
	s.down = v
	s.mu.Unlock()
}

func (s *flakySink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.accepted)
}

// retryFlow builds a distinguishable record; i is encoded into the source
// address and the byte count so ordering checks can read it back.
func retryFlow(i int) CorrelatedFlow {
	cf := CorrelatedFlow{Name: "svc.example.", ChainLen: 1, Tier: TierActive}
	cf.Flow = netflow.FlowRecord{
		Timestamp: time.Unix(1700000000+int64(i), 0).UTC(),
		SrcIP:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		DstIP:     netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		SrcPort:   1234, DstPort: 443, Proto: 6,
		Packets: 1, Bytes: uint64(i),
	}
	return cf
}

func retryBatch(from, n int) []CorrelatedFlow {
	b := make([]CorrelatedFlow, n)
	for i := range b {
		b[i] = retryFlow(from + i)
	}
	return b
}

// newTestRetrySink builds a RetrySink with an instant, counted sleep.
func newTestRetrySink(t *testing.T, inner Sink, cfg RetryConfig) (*RetrySink, *int) {
	t.Helper()
	rs, err := NewRetrySink(inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sleeps := 0
	rs.sleep = func(time.Duration) { sleeps++ }
	return rs, &sleeps
}

// TestRetryThenSuccess proves a transient failure is retried with doubling
// backoff and absorbed without spilling.
func TestRetryThenSuccess(t *testing.T) {
	inner := &flakySink{}
	rs, err := NewRetrySink(inner, RetryConfig{MaxRetries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var delays []time.Duration
	rs.sleep = func(d time.Duration) {
		delays = append(delays, d)
		if len(delays) == 2 {
			inner.setDown(false) // recovers before the second retry
		}
	}
	inner.setDown(true)
	if err := rs.WriteBatch(context.Background(), retryBatch(0, 5)); err != nil {
		t.Fatalf("WriteBatch = %v", err)
	}
	if inner.count() != 5 {
		t.Fatalf("delivered %d, want 5", inner.count())
	}
	if len(delays) != 2 || delays[0] != time.Millisecond || delays[1] != 2*time.Millisecond {
		t.Fatalf("backoff sequence = %v, want [1ms 2ms]", delays)
	}
	st := rs.Stats()
	if st.Delivered != 5 || st.Retries != 2 || st.Spilled != 0 || st.SpillDepth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSpillAndReplay proves batches written during an outage queue in
// memory and replay — in order, before newer traffic — once the endpoint
// recovers.
func TestSpillAndReplay(t *testing.T) {
	inner := &flakySink{}
	rs, _ := newTestRetrySink(t, inner, RetryConfig{MaxRetries: -1})
	inner.setDown(true)
	for b := 0; b < 3; b++ {
		if err := rs.WriteBatch(context.Background(), retryBatch(b*4, 4)); err != nil {
			t.Fatalf("WriteBatch = %v", err)
		}
	}
	if got := rs.Stats(); got.Spilled != 12 || got.SpilledBatches != 3 || got.SpillDepth != 12 || got.Delivered != 0 {
		t.Fatalf("outage stats = %+v", got)
	}
	inner.setDown(false)
	// The next write replays the backlog first, then delivers itself.
	if err := rs.WriteBatch(context.Background(), retryBatch(12, 4)); err != nil {
		t.Fatalf("WriteBatch = %v", err)
	}
	if inner.count() != 16 {
		t.Fatalf("delivered %d, want 16", inner.count())
	}
	inner.mu.Lock()
	for i, cf := range inner.accepted {
		if cf.Flow.Bytes != uint64(i) {
			inner.mu.Unlock()
			t.Fatalf("record %d has Bytes %d: replay broke FIFO order", i, cf.Flow.Bytes)
		}
	}
	inner.mu.Unlock()
	st := rs.Stats()
	if st.Delivered != 16 || st.Replayed != 12 || st.SpillDepth != 0 || st.Dropped != 0 {
		t.Fatalf("recovered stats = %+v", st)
	}
}

// TestSpillOverflowToDisk proves the mem→disk ordering rule: once any
// batch lands on disk, later batches go to disk too (never jumping the
// queue through memory), and replay preserves global order.
func TestSpillOverflowToDisk(t *testing.T) {
	dir := t.TempDir()
	inner := &flakySink{}
	rs, _ := newTestRetrySink(t, inner, RetryConfig{
		MaxRetries: -1,
		MemLimit:   6, // room for one 4-record batch, not two
		SpillPath:  filepath.Join(dir, "spill.jsonl"),
	})
	inner.setDown(true)
	for b := 0; b < 3; b++ {
		rs.WriteBatch(context.Background(), retryBatch(b*4, 4))
	}
	st := rs.Stats()
	if st.Spilled != 12 || st.DiskDepth != 8 || st.SpillDepth != 12 {
		t.Fatalf("outage stats = %+v (want 4 in mem, 8 on disk)", st)
	}
	if st.SpillBytes <= 0 {
		t.Fatal("SpillBytes not tracked")
	}
	inner.setDown(false)
	if err := rs.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if inner.count() != 12 {
		t.Fatalf("delivered %d, want 12", inner.count())
	}
	inner.mu.Lock()
	defer inner.mu.Unlock()
	for i, cf := range inner.accepted {
		if cf.Flow.Bytes != uint64(i) {
			t.Fatalf("record %d has Bytes %d: mem/disk replay out of order", i, cf.Flow.Bytes)
		}
	}
	if st := rs.Stats(); st.SpillDepth != 0 || st.DiskDepth != 0 || st.SpillBytes != 0 {
		t.Fatalf("drained stats = %+v (spill file not truncated?)", st)
	}
	// Round-trip fidelity through the JSONL codec.
	got := inner.accepted[7]
	want := retryFlow(7)
	if !got.Flow.Timestamp.Equal(want.Flow.Timestamp) || got.Flow.SrcIP != want.Flow.SrcIP ||
		got.Flow.DstPort != want.Flow.DstPort || got.Flow.Proto != want.Flow.Proto ||
		got.Name != want.Name || got.ChainLen != want.ChainLen || got.Tier != want.Tier {
		t.Fatalf("spill round-trip mangled record:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSpillBoundsDrop proves both bounds: a full memory queue with no disk
// drops (counted), and a full disk bound drops too.
func TestSpillBoundsDrop(t *testing.T) {
	inner := &flakySink{}
	rs, _ := newTestRetrySink(t, inner, RetryConfig{MaxRetries: -1, MemLimit: 4})
	inner.setDown(true)
	rs.WriteBatch(context.Background(), retryBatch(0, 4)) // fills mem
	rs.WriteBatch(context.Background(), retryBatch(4, 3)) // no disk: dropped
	rs.WriteBatch(context.Background(), retryBatch(7, 2)) // dropped
	st := rs.Stats()
	if st.Spilled != 4 || st.Dropped != 5 || st.DroppedBatches != 2 || st.SpillDepth != 4 {
		t.Fatalf("mem-bound stats = %+v", st)
	}

	dir := t.TempDir()
	rs2, _ := newTestRetrySink(t, &flakySink{down: true}, RetryConfig{
		MaxRetries: -1, MemLimit: -1,
		SpillPath:  filepath.Join(dir, "spill.jsonl"),
		SpillLimit: 1, // first append exceeds it; second is rejected
	})
	rs2.WriteBatch(context.Background(), retryBatch(0, 2))
	rs2.WriteBatch(context.Background(), retryBatch(2, 2))
	if st := rs2.Stats(); st.Spilled != 2 || st.Dropped != 2 || st.DroppedBatches != 1 {
		t.Fatalf("disk-bound stats = %+v", st)
	}
}

// TestSpillSurvivesRestart proves replay-on-recovery across process
// boundaries: a sink that dies with a backlog leaves a spill file the next
// boot adopts and replays.
func TestSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.jsonl")

	inner := &flakySink{down: true}
	rs, _ := newTestRetrySink(t, inner, RetryConfig{MaxRetries: -1, MemLimit: -1, SpillPath: path})
	rs.WriteBatch(context.Background(), retryBatch(0, 5))
	rs.WriteBatch(context.Background(), retryBatch(5, 5))
	if err := rs.Close(); err == nil {
		t.Fatal("Close with an undelivered backlog should report it")
	}

	// "Next boot": a fresh wrapper over a healthy sink adopts the file.
	inner2 := &flakySink{}
	rs2, _ := newTestRetrySink(t, inner2, RetryConfig{SpillPath: path})
	if st := rs2.Stats(); st.DiskDepth != 10 {
		t.Fatalf("adopted DiskDepth = %d, want 10", st.DiskDepth)
	}
	if err := rs2.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if inner2.count() != 10 {
		t.Fatalf("replayed %d, want 10", inner2.count())
	}
	for i, cf := range inner2.accepted {
		if cf.Flow.Bytes != uint64(i) {
			t.Fatalf("record %d has Bytes %d: cross-restart replay out of order", i, cf.Flow.Bytes)
		}
	}
	if err := rs2.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("spill file not truncated after drain: %v / %d bytes", err, fi.Size())
	}
}

// TestSpillToleratesTornTail proves a crash mid-append (torn final line)
// does not poison the queue: the good prefix replays, the tail is ignored.
func TestSpillToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.jsonl")

	inner := &flakySink{down: true}
	rs, _ := newTestRetrySink(t, inner, RetryConfig{MaxRetries: -1, MemLimit: -1, SpillPath: path})
	rs.WriteBatch(context.Background(), retryBatch(0, 3))
	rs.disk.f.Sync()
	// Simulate the crash: append half a line by hand.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`[{"ts":"2026-01-01T00:00:00Z","src":"10.`)
	f.Close()

	inner2 := &flakySink{}
	rs2, _ := newTestRetrySink(t, inner2, RetryConfig{SpillPath: path})
	if st := rs2.Stats(); st.DiskDepth != 3 {
		t.Fatalf("DiskDepth = %d, want 3 (torn tail counted?)", st.DiskDepth)
	}
	if err := rs2.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if inner2.count() != 3 {
		t.Fatalf("replayed %d, want 3", inner2.count())
	}
}

// TestSpillAppendAfterTornTail proves a torn tail left by a crash does not
// swallow the next spilled batch: the file is cut back to its last
// complete line at open, so a batch spilled after the restart lands on a
// line of its own and replays with the old backlog.
func TestSpillAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.jsonl")

	rs, _ := newTestRetrySink(t, &flakySink{down: true}, RetryConfig{MaxRetries: -1, MemLimit: -1, SpillPath: path})
	rs.WriteBatch(context.Background(), retryBatch(0, 1))
	rs.disk.f.Sync()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`[{"ts":"2026-01-01T00:00:00Z","src":"10.`)
	f.Close()

	inner := &flakySink{down: true}
	rs2, _ := newTestRetrySink(t, inner, RetryConfig{MaxRetries: -1, MemLimit: -1, SpillPath: path})
	rs2.WriteBatch(context.Background(), retryBatch(1, 3))
	if st := rs2.Stats(); st.DiskDepth != 4 {
		t.Fatalf("DiskDepth = %d, want 4", st.DiskDepth)
	}
	inner.setDown(false)
	if err := rs2.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if inner.count() != 4 {
		t.Fatalf("delivered %d, want 4 (batch spilled after the torn tail lost)", inner.count())
	}
	for i, cf := range inner.accepted {
		if cf.Flow.Bytes != uint64(i) {
			t.Fatalf("record %d has Bytes %d: replay out of order", i, cf.Flow.Bytes)
		}
	}
	if st := rs2.Stats(); st.SpillDepth != 0 || st.Replayed != 4 {
		t.Fatalf("drained stats = %+v, want SpillDepth 0 and 4 replayed", st)
	}
}

// TestSpillSkipsUndecodableLine proves the backlog count and the replay
// agree on a complete line that does not decode: both skip it, so the
// lines after it are counted, replayed, and the depth returns to zero.
func TestSpillSkipsUndecodableLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.jsonl")

	rs, _ := newTestRetrySink(t, &flakySink{down: true}, RetryConfig{MaxRetries: -1, MemLimit: -1, SpillPath: path})
	rs.WriteBatch(context.Background(), retryBatch(0, 2))
	rs.disk.f.Sync()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json\n")
	f.Close()
	rs.WriteBatch(context.Background(), retryBatch(2, 3))

	inner := &flakySink{}
	rs2, _ := newTestRetrySink(t, inner, RetryConfig{SpillPath: path})
	if st := rs2.Stats(); st.DiskDepth != 5 {
		t.Fatalf("DiskDepth = %d, want 5 (lines after the bad one not counted?)", st.DiskDepth)
	}
	if err := rs2.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	if inner.count() != 5 {
		t.Fatalf("replayed %d, want 5", inner.count())
	}
	if st := rs2.Stats(); st.SpillDepth != 0 || st.SpillBytes != 0 {
		t.Fatalf("drained stats = %+v, want an empty, truncated spill file", st)
	}
}

// TestRetrySinkPanicContainment proves an inner-sink panic is converted to
// a failed attempt — retried, then spilled — never escaping to the caller.
func TestRetrySinkPanicContainment(t *testing.T) {
	calls := 0
	inner := SinkFunc(func(cf CorrelatedFlow) {
		calls++
		panic("exporter bug")
	})
	rs, sleeps := newTestRetrySink(t, inner, RetryConfig{MaxRetries: 1})
	if err := rs.WriteBatch(context.Background(), retryBatch(0, 2)); err != nil {
		t.Fatalf("WriteBatch = %v (panic escaped?)", err)
	}
	st := rs.Stats()
	// Two attempts (original + 1 retry), each panicking on its first record.
	if st.PanicsContained != 2 || calls != 2 || *sleeps != 1 {
		t.Fatalf("panics/calls/sleeps = %d/%d/%d, want 2/2/1", st.PanicsContained, calls, *sleeps)
	}
	if st.Spilled != 2 || st.SpillDepth != 2 {
		t.Fatalf("stats = %+v (batch not spilled after contained panics)", st)
	}
}

// TestRetrySinkFailpoints proves the core.sink.write failpoint drives the
// retry/spill machinery like a real outage, and that it heals.
func TestRetrySinkFailpoints(t *testing.T) {
	defer fault.DisableAll()
	inner := &flakySink{}
	rs, _ := newTestRetrySink(t, inner, RetryConfig{MaxRetries: 1})
	// Budget 3: initial + retry fail and the batch spills; the next
	// write's replay burns the last and queues behind; then it heals.
	if err := fault.Enable("core.sink.write", "3*error(injected outage)"); err != nil {
		t.Fatal(err)
	}
	rs.WriteBatch(context.Background(), retryBatch(0, 3))
	if st := rs.Stats(); st.Spilled != 3 || st.Retries != 1 {
		t.Fatalf("during outage: %+v", st)
	}
	rs.WriteBatch(context.Background(), retryBatch(3, 3)) // replay fails; queues behind
	if st := rs.Stats(); st.SpillDepth != 6 {
		t.Fatalf("SpillDepth = %d, want 6", st.SpillDepth)
	}
	// Failpoint budget exhausted (self-disarmed): everything drains.
	rs.WriteBatch(context.Background(), retryBatch(6, 3))
	if inner.count() != 9 {
		t.Fatalf("delivered %d, want 9", inner.count())
	}
	st := rs.Stats()
	if st.SpillDepth != 0 || st.Replayed != 6 || st.Dropped != 0 {
		t.Fatalf("after recovery: %+v", st)
	}

	// Flush failpoint: absorbed, counted.
	if err := fault.Enable("core.sink.flush", "1*error(flush outage)"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Flush(); err != nil {
		t.Fatalf("Flush = %v (injected flush error escaped)", err)
	}
	if st := rs.Stats(); st.FlushErrors != 1 {
		t.Fatalf("FlushErrors = %d, want 1", st.FlushErrors)
	}
}

// TestRetrySinkAttemptTimeout proves the per-attempt bound: a hung sink
// turns into a deadline error, not a wedged write worker.
func TestRetrySinkAttemptTimeout(t *testing.T) {
	hung := sinkWaitCtx{}
	rs, _ := newTestRetrySink(t, hung, RetryConfig{MaxRetries: -1, Timeout: 5 * time.Millisecond})
	start := time.Now()
	rs.WriteBatch(context.Background(), retryBatch(0, 1))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("attempt not bounded: took %v", elapsed)
	}
	if st := rs.Stats(); st.Spilled != 1 {
		t.Fatalf("stats = %+v (timed-out batch should spill)", st)
	}
}

// sinkWaitCtx blocks until its context dies.
type sinkWaitCtx struct{}

func (sinkWaitCtx) WriteBatch(ctx context.Context, _ []CorrelatedFlow) error {
	<-ctx.Done()
	return ctx.Err()
}
func (sinkWaitCtx) Flush() error { return nil }
func (sinkWaitCtx) Close() error { return nil }

// TestRetrySinkCloseDrains proves Close makes a final delivery attempt and
// reaches the inner Close.
func TestRetrySinkCloseDrains(t *testing.T) {
	inner := &flakySink{down: true}
	rs, _ := newTestRetrySink(t, inner, RetryConfig{MaxRetries: -1})
	rs.WriteBatch(context.Background(), retryBatch(0, 3))
	inner.setDown(false)
	if err := rs.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if inner.count() != 3 || !inner.closed {
		t.Fatalf("delivered %d / closed %v, want 3 / true", inner.count(), inner.closed)
	}
}
