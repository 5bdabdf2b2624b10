// Package influxsink exports correlated flows as InfluxDB line protocol —
// the TSDB leg of the paper's deployment, where the correlated stream feeds
// the operator's time-series dashboards (the same shape the gonflux
// NetFlow→TSDB exporters provide, done through the pipeline's batched Sink
// contract instead of one synchronous POST per record).
//
// One flow becomes one point:
//
//	flowdns,service=svc.example,tier=active src="198.51.100.7",dst="10.0.0.1",bytes=1200i,packets=10i,chain=1i 1700000000000000000
//
// The service and lookup tier are tags (the dimensions dashboards group
// by); addresses and counters are fields; the timestamp is the flow's, in
// nanoseconds. Uncorrelated flows carry no service tag (or are skipped with
// SkipMisses).
//
// The sink batches by size and time: WriteBatch appends to a reusable line
// buffer and ships it when it passes MaxBatchBytes; Flush — called by the
// last correlation lane to go idle — ships whatever has lingered longer
// than FlushInterval; Close ships the rest unconditionally.
//
// Failure handling is transactional so the sink composes with
// core.RetrySink, which owns retries, backoff, and the spill queue: a
// WriteBatch whose ship fails rolls the batch's own lines back out of the
// buffer and returns the error, so a retry of the same batch cannot
// duplicate points. Lines accepted by earlier WriteBatch calls stay
// buffered for the next attempt, bounded — beyond the bound the oldest
// lines are dropped and accounted in Stats.DroppedBytes / DroppedRecords /
// DroppedBatches, so an endpoint outage costs bounded memory, never
// unbounded growth.
package influxsink

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// Defaults; see Config.
const (
	DefaultMeasurement   = "flowdns"
	DefaultMaxBatchBytes = 64 << 10
	DefaultFlushInterval = time.Second
	// maxBufferedFactor bounds the carry-over buffer after failed sends to
	// maxBufferedFactor × MaxBatchBytes; beyond that the oldest lines are
	// dropped (and accounted in Stats.DroppedBytes/DroppedRecords/
	// DroppedBatches) rather than growing without limit while the endpoint
	// is down.
	maxBufferedFactor = 16
)

// Config configures a Sink. Exactly one of W and URL must be set: W streams
// line protocol to a writer (a file, a pipe to `influx write`), URL POSTs
// each batch to an InfluxDB-compatible write endpoint (e.g.
// http://host:8086/write?db=flowdns).
type Config struct {
	W   io.Writer
	URL string
	// Client overrides the HTTP client in URL mode (nil = a client with a
	// 10 s timeout).
	Client *http.Client

	// Measurement names the series ("" = "flowdns").
	Measurement string
	// SkipMisses drops flows without a resolved name instead of writing an
	// untagged point.
	SkipMisses bool

	// MaxBatchBytes ships the buffer once it exceeds this size (0 = 64 KiB).
	MaxBatchBytes int
	// FlushInterval is the time bound: a Flush call ships a non-empty
	// buffer only once this much has passed since the last ship, so the
	// lanes' flush-on-idle cadence does not defeat batching under light
	// load (0 = 1 s; negative = ship on every Flush).
	FlushInterval time.Duration
}

// Stats counts the sink's I/O outcomes.
type Stats struct {
	// Points is the number of encoded points (one per flow written).
	Points uint64
	// Sends is the number of successful batch ships; SendErrors counts
	// failed ship attempts (retrying them is the caller's job — wrap the
	// sink in a core.RetrySink).
	Sends      uint64
	SendErrors uint64
	// DroppedBytes is how much buffered line protocol was discarded because
	// the endpoint stayed unreachable past the buffer bound; DroppedRecords
	// is how many encoded points those bytes held, and DroppedBatches how
	// many overflow events cut the buffer.
	DroppedBytes   uint64
	DroppedRecords uint64
	DroppedBatches uint64
}

// Sink implements core.Sink over InfluxDB line protocol.
type Sink struct {
	cfg    Config
	client *http.Client

	mu       sync.Mutex
	buf      []byte
	lastShip time.Time
	stats    Stats

	// now is a test seam for the clock.
	now func() time.Time
}

// New builds a Sink from cfg.
func New(cfg Config) (*Sink, error) {
	if (cfg.W == nil) == (cfg.URL == "") {
		return nil, errors.New("influxsink: exactly one of W and URL must be set")
	}
	if cfg.Measurement == "" {
		cfg.Measurement = DefaultMeasurement
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	s := &Sink{
		cfg:    cfg,
		client: cfg.Client,
		buf:    make([]byte, 0, cfg.MaxBatchBytes+1024),
		now:    time.Now,
	}
	if s.client == nil {
		s.client = &http.Client{Timeout: 10 * time.Second}
	}
	return s, nil
}

// appendEscaped writes s to dst escaping the line-protocol special
// characters for tag keys/values and measurements: comma, space, equals.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ',', ' ', '=':
			dst = append(dst, '\\', c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// AppendPoint encodes one correlated flow as a line-protocol point into dst
// and returns the extended slice. Exported for the benchmark harness; the
// sink itself appends straight into its batch buffer.
func AppendPoint(dst []byte, measurement string, cf *core.CorrelatedFlow) []byte {
	dst = appendEscaped(dst, measurement)
	if cf.Name != "" {
		dst = append(dst, ",service="...)
		dst = appendEscaped(dst, cf.Name)
	}
	if cf.Tier != core.TierNone {
		dst = append(dst, ",tier="...)
		dst = append(dst, cf.Tier.String()...)
	}
	dst = append(dst, " src=\""...)
	dst = cf.Flow.SrcIP.AppendTo(dst)
	dst = append(dst, "\",dst=\""...)
	dst = cf.Flow.DstIP.AppendTo(dst)
	dst = append(dst, "\",bytes="...)
	dst = strconv.AppendUint(dst, cf.Flow.Bytes, 10)
	dst = append(dst, "i,packets="...)
	dst = strconv.AppendUint(dst, cf.Flow.Packets, 10)
	dst = append(dst, "i,chain="...)
	dst = strconv.AppendInt(dst, int64(cf.ChainLen), 10)
	dst = append(dst, "i "...)
	dst = strconv.AppendInt(dst, cf.Flow.Timestamp.UnixNano(), 10)
	dst = append(dst, '\n')
	return dst
}

// WriteBatch encodes the batch into the reusable line buffer under one lock
// acquisition and ships it once it passes the size bound. The call is
// transactional: if the ship fails, this batch's own lines are rolled back
// out of the buffer before the error returns, so the caller (typically a
// core.RetrySink) can retry or spill the same batch with no duplication.
func (s *Sink) WriteBatch(_ context.Context, batch []core.CorrelatedFlow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pre, prePoints := len(s.buf), s.stats.Points
	for i := range batch {
		cf := &batch[i]
		if cf.Name == "" && s.cfg.SkipMisses {
			continue
		}
		s.buf = AppendPoint(s.buf, s.cfg.Measurement, cf)
		s.stats.Points++
	}
	if len(s.buf) >= s.cfg.MaxBatchBytes {
		if err := s.ship(); err != nil {
			s.buf = s.buf[:pre]
			s.stats.Points = prePoints
			s.enforceBound()
			return err
		}
	}
	return nil
}

// Flush ships the buffer if FlushInterval has passed since the last ship
// (the last lane to go idle calls Flush; the interval keeps those calls
// from degrading batches under light load).
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	if s.cfg.FlushInterval > 0 && s.now().Sub(s.lastShip) < s.cfg.FlushInterval {
		return nil
	}
	if err := s.ship(); err != nil {
		s.enforceBound()
		return err
	}
	return nil
}

// Close ships whatever is buffered, unconditionally: the pipeline's drain
// must not leave encoded points behind.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	if err := s.ship(); err != nil {
		s.enforceBound()
		return err
	}
	return nil
}

// SinkStats snapshots the I/O counters.
func (s *Sink) SinkStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ship makes one send attempt of the buffered lines, called with mu held.
// On success the buffer resets (capacity retained); on failure the lines
// stay for the next attempt and the error returns to the caller, who owns
// the retry policy (core.RetrySink in the daemon wiring).
func (s *Sink) ship() error {
	if err := s.send(s.buf); err != nil {
		s.stats.SendErrors++
		return fmt.Errorf("influxsink: %w", err)
	}
	s.buf = s.buf[:0]
	s.lastShip = s.now()
	s.stats.Sends++
	return nil
}

// enforceBound caps the carry-over buffer at maxBufferedFactor ×
// MaxBatchBytes after a failed ship, dropping the oldest whole lines and
// accounting them in bytes, records, and cut events. Called with mu held.
func (s *Sink) enforceBound() {
	max := s.cfg.MaxBatchBytes * maxBufferedFactor
	if len(s.buf) <= max {
		return
	}
	cut := len(s.buf) - max
	// Drop whole lines only: advance the cut to the next newline so the
	// surviving buffer still starts at a point boundary.
	if i := bytes.IndexByte(s.buf[cut:], '\n'); i >= 0 {
		cut += i + 1
	} else {
		cut = len(s.buf)
	}
	s.stats.DroppedBytes += uint64(cut)
	s.stats.DroppedRecords += uint64(bytes.Count(s.buf[:cut], []byte{'\n'}))
	s.stats.DroppedBatches++
	s.buf = s.buf[:copy(s.buf, s.buf[cut:])]
}

// send performs one write attempt of the encoded lines.
func (s *Sink) send(lines []byte) error {
	if s.cfg.W != nil {
		_, err := s.cfg.W.Write(lines)
		return err
	}
	resp, err := s.client.Post(s.cfg.URL, "text/plain; charset=utf-8", bytes.NewReader(lines))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("endpoint returned %s", resp.Status)
	}
	return nil
}

var _ core.Sink = (*Sink)(nil)

func init() {
	// Registry integration: "influx" is selectable wherever registered
	// sinks are. With SinkOptions.URL set the sink POSTs to the endpoint
	// and ignores W; otherwise it streams line protocol to W (the
	// configured output file).
	core.RegisterSink("influx", true, func(o core.SinkOptions) (core.Sink, error) {
		if o.URL == "" && o.W == nil {
			return nil, errors.New("influxsink: requires an output writer or a url")
		}
		cfg := Config{Measurement: o.Measurement, SkipMisses: o.SkipMisses}
		if o.URL != "" {
			cfg.URL = o.URL
		} else {
			cfg.W = o.W
		}
		return New(cfg)
	})
}
