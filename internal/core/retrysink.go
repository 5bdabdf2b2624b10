package core

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sync"
	"time"

	"repro/internal/fault"
)

// Failpoints covering the sink path. They fire inside RetrySink's inner
// attempt, so an injected outage exercises the retry/backoff/spill
// machinery exactly like a real endpoint failure would; arming "panic"
// specs exercises the wrapper's panic containment instead.
var (
	fpSinkWrite = fault.New("core.sink.write")
	fpSinkFlush = fault.New("core.sink.flush")
)

// Defaults for RetryConfig's zero values.
const (
	DefaultRetryMaxRetries = 3
	DefaultRetryBackoff    = 100 * time.Millisecond
	DefaultRetryTimeout    = 10 * time.Second
	DefaultRetryMemLimit   = 65536
	DefaultRetrySpillLimit = 64 << 20 // 64 MiB
)

// RetryConfig tunes a RetrySink.
type RetryConfig struct {
	// MaxRetries is how many times a failed WriteBatch is retried before
	// the batch is diverted to the spill queue. 0 means the default (3);
	// negative means no retries (first failure spills).
	MaxRetries int
	// Backoff is the delay before the first retry, doubling with each
	// subsequent retry of the same batch. 0 means the default (100 ms).
	Backoff time.Duration
	// Timeout bounds each individual attempt via the write context. 0
	// means the default (10 s); negative disables the per-attempt bound.
	Timeout time.Duration
	// MemLimit bounds the in-memory spill queue in records. 0 means the
	// default (65536); negative means no in-memory queue (straight to
	// disk, or dropped when SpillPath is empty).
	MemLimit int
	// SpillPath is the on-disk overflow file. Records that do not fit in
	// memory are appended there (JSON lines, one batch per line) and
	// replayed after recovery — including recovery in a later process:
	// NewRetrySink picks an existing spill file back up on boot. Empty
	// disables disk spill.
	SpillPath string
	// SpillLimit bounds the spill file in bytes; batches beyond it are
	// dropped (and counted). 0 means the default (64 MiB).
	SpillLimit int64
}

// normalized fills zero fields with defaults.
func (c RetryConfig) normalized() RetryConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultRetryMaxRetries
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultRetryBackoff
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultRetryTimeout
	}
	if c.MemLimit == 0 {
		c.MemLimit = DefaultRetryMemLimit
	}
	if c.MemLimit < 0 {
		c.MemLimit = 0
	}
	if c.SpillLimit <= 0 {
		c.SpillLimit = DefaultRetrySpillLimit
	}
	return c
}

// RetryStats is a RetrySink's accounting snapshot. The queue-invariant
// companion: every record handed to a RetrySink is in exactly one of
// Delivered (inner sink took it), SpillDepth (still queued), or Dropped.
type RetryStats struct {
	// Delivered counts records the inner sink accepted (first try, retry,
	// or replay).
	Delivered uint64
	// Retries counts retry attempts after a failed write.
	Retries uint64
	// Spilled counts records diverted to the spill queue; SpilledBatches
	// the batches they arrived in.
	Spilled        uint64
	SpilledBatches uint64
	// Replayed counts spilled records later delivered to the inner sink.
	Replayed uint64
	// Dropped counts records lost because both spill bounds were
	// exhausted; DroppedBatches the batches they arrived in.
	Dropped        uint64
	DroppedBatches uint64
	// PanicsContained counts inner-sink panics converted to errors.
	PanicsContained uint64
	// FlushErrors counts inner Flush failures absorbed by the wrapper.
	FlushErrors uint64
	// SpillDepth is the current backlog in records (memory + disk);
	// DiskDepth the on-disk share; SpillBytes the spill file size.
	SpillDepth int
	DiskDepth  int
	SpillBytes int64
}

// RetrySink wraps any Sink with timeout-bounded attempts, doubling-backoff
// retries, and a bounded in-memory/on-disk spill queue with
// replay-on-recovery — so a downstream outage degrades to bounded,
// accounted buffering instead of killing the pipeline.
//
// Semantics: WriteBatch never returns an error for a batch the wrapper has
// taken responsibility for — a batch either reaches the inner sink, waits
// in the spill queue (replayed in FIFO order once the endpoint recovers),
// or is dropped against a full queue and counted. The lanes writing to it
// therefore never see a transient outage; only Close surfaces a terminal
// error. Replay preserves batch order: while a backlog exists, new batches
// queue behind it rather than overtaking it.
type RetrySink struct {
	inner Sink
	cfg   RetryConfig

	mu    sync.Mutex
	mem   [][]CorrelatedFlow // in-memory backlog, FIFO
	memN  int                // records in mem
	disk  *spillFile         // nil when SpillPath is empty
	stats RetryStats

	// sleep is the backoff clock; tests inject their own.
	sleep func(time.Duration)
}

// NewRetrySink wraps inner. If cfg.SpillPath names an existing non-empty
// spill file (a previous process's unreplayed backlog), it is adopted and
// replayed on the first recovery.
func NewRetrySink(inner Sink, cfg RetryConfig) (*RetrySink, error) {
	s := &RetrySink{inner: inner, cfg: cfg.normalized(), sleep: time.Sleep}
	if s.cfg.SpillPath != "" {
		f, err := openSpillFile(s.cfg.SpillPath)
		if err != nil {
			return nil, fmt.Errorf("core: retry sink: %w", err)
		}
		s.disk = f
	}
	return s, nil
}

// WriteBatch implements Sink. See the type comment for the absorb
// semantics; the returned error is always nil.
func (s *RetrySink) WriteBatch(ctx context.Context, batch []CorrelatedFlow) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backlogLocked() > 0 {
		// An outage backlog exists. Replay it first — FIFO order — and if
		// the endpoint is still down, queue the new batch behind it.
		if err := s.replayLocked(ctx); err != nil {
			s.spillLocked(batch)
			return nil
		}
	}
	if err := s.attemptLocked(ctx, batch); err != nil {
		s.spillLocked(batch)
	}
	return nil
}

// Flush implements Sink. A backlog means the endpoint was down; Flush
// probes it with a replay. Inner flush errors are absorbed and counted —
// surfacing them would shut the pipeline down, which is exactly what this
// wrapper exists to prevent.
func (s *RetrySink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backlogLocked() > 0 {
		if err := s.replayLocked(context.Background()); err != nil {
			return nil
		}
	}
	if err := s.flushOnce(); err != nil {
		s.stats.FlushErrors++
	}
	return nil
}

// Close makes a final replay attempt, persists what remains, and closes
// the inner sink. Records that could be neither delivered nor persisted
// to disk are counted as dropped; an error reports whatever was lost.
func (s *RetrySink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	if s.backlogLocked() > 0 {
		if err := s.replayLocked(context.Background()); err != nil {
			errs = append(errs, fmt.Errorf("core: retry sink: final replay: %w", err))
		}
	}
	// Whatever memory backlog remains outlives the process only on disk.
	for len(s.mem) > 0 {
		b := s.mem[0]
		if s.disk != nil && s.disk.bytes < s.cfg.SpillLimit {
			if _, err := s.disk.append(b); err == nil {
				s.mem = s.mem[1:]
				s.memN -= len(b)
				continue
			} else {
				errs = append(errs, fmt.Errorf("core: retry sink: persist backlog: %w", err))
			}
		}
		s.stats.Dropped += uint64(s.memN)
		s.stats.DroppedBatches += uint64(len(s.mem))
		errs = append(errs, fmt.Errorf("core: retry sink: %d undelivered records dropped at close", s.memN))
		s.mem, s.memN = nil, 0
	}
	if s.disk != nil {
		if err := s.disk.close(); err != nil {
			errs = append(errs, err)
		}
		if d := s.disk.records; d > 0 {
			errs = append(errs, fmt.Errorf("core: retry sink: %d records left in spill file %s (replayed on next boot)", d, s.cfg.SpillPath))
		}
	}
	if err := s.closeOnce(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Stats snapshots the wrapper's accounting.
func (s *RetrySink) Stats() RetryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.SpillDepth = s.backlogLocked()
	if s.disk != nil {
		st.DiskDepth = s.disk.records
		st.SpillBytes = s.disk.bytes
	}
	return st
}

// backlogLocked is the spill-queue depth in records.
func (s *RetrySink) backlogLocked() int {
	n := s.memN
	if s.disk != nil {
		n += s.disk.records
	}
	return n
}

// attemptLocked tries the inner write with retries, doubling backoff, and
// the per-attempt timeout.
func (s *RetrySink) attemptLocked(ctx context.Context, batch []CorrelatedFlow) error {
	backoff := s.cfg.Backoff
	for try := 0; ; try++ {
		err := s.writeOnce(ctx, batch)
		if err == nil {
			s.stats.Delivered += uint64(len(batch))
			return nil
		}
		if try >= s.cfg.MaxRetries {
			return err
		}
		s.stats.Retries++
		s.sleep(backoff)
		backoff *= 2
	}
}

// writeOnce is a single inner WriteBatch attempt: failpoint, timeout
// bound, panic containment.
func (s *RetrySink) writeOnce(ctx context.Context, batch []CorrelatedFlow) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.PanicsContained++
			err = fmt.Errorf("core: retry sink: contained panic: %v", r)
		}
	}()
	if err := fpSinkWrite.Inject(); err != nil {
		return err
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	return s.inner.WriteBatch(ctx, batch)
}

// flushOnce is a single inner Flush attempt with the same containment.
func (s *RetrySink) flushOnce() (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.PanicsContained++
			err = fmt.Errorf("core: retry sink: contained panic: %v", r)
		}
	}()
	if err := fpSinkFlush.Inject(); err != nil {
		return err
	}
	return s.inner.Flush()
}

// closeOnce contains a panicking inner Close.
func (s *RetrySink) closeOnce() (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.PanicsContained++
			err = fmt.Errorf("core: retry sink: contained panic: %v", r)
		}
	}()
	return s.inner.Close()
}

// spillLocked diverts a batch into the backlog. The batch slice belongs to
// the caller only for the duration of WriteBatch, so the wrapper copies.
// Destination rule, preserving FIFO: memory while the disk queue is empty
// and the batch fits, disk otherwise (a non-empty disk queue means memory
// holds *older* batches; writing to memory then would reorder replay).
func (s *RetrySink) spillLocked(batch []CorrelatedFlow) {
	diskEmpty := s.disk == nil || s.disk.records == 0
	if diskEmpty && s.memN+len(batch) <= s.cfg.MemLimit {
		cp := make([]CorrelatedFlow, len(batch))
		copy(cp, batch)
		s.mem = append(s.mem, cp)
		s.memN += len(batch)
		s.stats.Spilled += uint64(len(batch))
		s.stats.SpilledBatches++
		return
	}
	if s.disk != nil && s.disk.bytes < s.cfg.SpillLimit {
		if _, err := s.disk.append(batch); err == nil {
			s.stats.Spilled += uint64(len(batch))
			s.stats.SpilledBatches++
			return
		}
	}
	s.stats.Dropped += uint64(len(batch))
	s.stats.DroppedBatches++
}

// replayLocked drains the backlog through the inner sink in FIFO order:
// memory first (older), then the spill file. Each batch gets one attempt —
// recovery probing must not multiply a long outage by per-batch backoff.
// The first failure stops the replay with everything undelivered intact.
func (s *RetrySink) replayLocked(ctx context.Context) error {
	for len(s.mem) > 0 {
		b := s.mem[0]
		if err := s.writeOnce(ctx, b); err != nil {
			return err
		}
		s.stats.Delivered += uint64(len(b))
		s.stats.Replayed += uint64(len(b))
		s.mem = s.mem[1:]
		s.memN -= len(b)
	}
	if s.mem != nil && len(s.mem) == 0 {
		s.mem = nil
	}
	if s.disk != nil && s.disk.records > 0 {
		return s.disk.replay(func(b []CorrelatedFlow) error {
			if err := s.writeOnce(ctx, b); err != nil {
				return err
			}
			s.stats.Delivered += uint64(len(b))
			s.stats.Replayed += uint64(len(b))
			return nil
		})
	}
	return nil
}

// --- on-disk spill file ---

// spillRecord is the JSON form of one CorrelatedFlow in the spill file.
// Addresses marshal as text (netip), timestamps as RFC 3339.
type spillRecord struct {
	TS       time.Time  `json:"ts"`
	Src      netip.Addr `json:"src"`
	Dst      netip.Addr `json:"dst"`
	SrcPort  uint16     `json:"sp,omitempty"`
	DstPort  uint16     `json:"dp,omitempty"`
	Proto    uint8      `json:"proto,omitempty"`
	Packets  uint64     `json:"pkts,omitempty"`
	Bytes    uint64     `json:"bytes,omitempty"`
	Name     string     `json:"name,omitempty"`
	ChainLen int        `json:"chain,omitempty"`
	Tier     uint8      `json:"tier,omitempty"`
}

// spillFile is an append-only JSONL file of spilled batches (one batch per
// line) plus the replay cursor. The cursor lives in memory: after a crash
// the whole file replays again, so spill delivery is at-least-once — the
// price of not maintaining a second metadata file for a failure path.
type spillFile struct {
	path    string
	f       *os.File
	offset  int64 // replay cursor: everything before it was delivered
	bytes   int64 // file size
	records int   // undelivered records at/after offset
}

// openSpillFile opens (creating if needed) the spill file and counts any
// backlog a previous process left behind. A torn final line — a crash
// mid-append — is cut off; its batch was never acknowledged anywhere, and
// left in place it would swallow the next appended line.
func openSpillFile(path string) (*spillFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &spillFile{path: path, f: f}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scan counts the records in the file and truncates it to the end of its
// last complete line. A complete line that does not decode counts no
// records, as replay skips it.
func (s *spillFile) scan() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.records, s.bytes = 0, 0
	r := bufio.NewReaderSize(s.f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.bytes += int64(len(line))
		var recs []spillRecord
		if json.Unmarshal(line, &recs) == nil {
			s.records += len(recs)
		}
	}
	return s.f.Truncate(s.bytes)
}

// append encodes one batch as a line and appends it, returning the new
// file size.
func (s *spillFile) append(batch []CorrelatedFlow) (int64, error) {
	recs := make([]spillRecord, len(batch))
	for i := range batch {
		cf := &batch[i]
		recs[i] = spillRecord{
			TS: cf.Flow.Timestamp, Src: cf.Flow.SrcIP, Dst: cf.Flow.DstIP,
			SrcPort: cf.Flow.SrcPort, DstPort: cf.Flow.DstPort, Proto: cf.Flow.Proto,
			Packets: cf.Flow.Packets, Bytes: cf.Flow.Bytes,
			Name: cf.Name, ChainLen: cf.ChainLen, Tier: uint8(cf.Tier),
		}
	}
	line, err := json.Marshal(recs)
	if err != nil {
		return s.bytes, err
	}
	line = append(line, '\n')
	// Write at the end of the last complete line: a failed partial write
	// before this one is overwritten, never joined to this line.
	if _, err := s.f.WriteAt(line, s.bytes); err != nil {
		return s.bytes, err
	}
	s.bytes += int64(len(line))
	s.records += len(batch)
	return s.bytes, nil
}

// replay streams undelivered batches through deliver in file order. On the
// first failure the cursor stays at the failed batch, so the next replay
// resumes exactly there. A fully drained file is truncated back to zero.
func (s *spillFile) replay(deliver func([]CorrelatedFlow) error) error {
	if _, err := s.f.Seek(s.offset, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(s.f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			break // end of file (or torn tail)
		}
		var recs []spillRecord
		if json.Unmarshal(line, &recs) != nil {
			// Undecodable line: skip it rather than wedging the queue.
			s.offset += int64(len(line))
			continue
		}
		batch := make([]CorrelatedFlow, len(recs))
		for i, sr := range recs {
			batch[i] = CorrelatedFlow{Name: sr.Name, ChainLen: sr.ChainLen, Tier: Tier(sr.Tier)}
			batch[i].Flow.Timestamp = sr.TS
			batch[i].Flow.SrcIP, batch[i].Flow.DstIP = sr.Src, sr.Dst
			batch[i].Flow.SrcPort, batch[i].Flow.DstPort = sr.SrcPort, sr.DstPort
			batch[i].Flow.Proto = sr.Proto
			batch[i].Flow.Packets, batch[i].Flow.Bytes = sr.Packets, sr.Bytes
		}
		if err := deliver(batch); err != nil {
			return err
		}
		s.offset += int64(len(line))
		s.records -= len(batch)
	}
	if s.records <= 0 {
		if err := s.f.Truncate(0); err != nil {
			return err
		}
		s.offset, s.bytes, s.records = 0, 0, 0
	}
	return nil
}

// close closes the file handle (the file itself stays for the next boot).
func (s *spillFile) close() error { return s.f.Close() }
