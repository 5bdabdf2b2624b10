package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/dnswire"
	"repro/internal/fault"
)

// ErrMessageTooLarge is returned when a length-prefixed frame exceeds the
// 64 KiB DNS-over-TCP maximum.
var ErrMessageTooLarge = errors.New("stream: framed message exceeds 65535 bytes")

// WriteFrame writes one length-prefixed message (RFC 1035 §4.2.2: two-byte
// big-endian length, then the payload).
func WriteFrame(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		return ErrMessageTooLarge
	}
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// ReadFrame reads one length-prefixed message, reusing buf when it has
// capacity. It returns the payload (aliasing buf) or an error. The length
// header is read into buf too — a stack-local header array would escape
// through the io.Reader interface and cost one heap allocation per frame,
// which at ISP stream rates is the difference between an allocation-free
// read loop and a GC-visible one.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 2 {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:2]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// fpDNSRead injects read faults into the DNS TCP read loop (error ends
// the stream like a peer reset; delay stalls the reader like a slow peer).
var fpDNSRead = fault.New("stream.dns.read")

// dnsPutter is the optional Ingest capability a TCP DNS source prefers:
// PutDNSBatch waits for buffer space instead of dropping. The correlator
// implements it; the cluster router, which never blocks, does not.
type dnsPutter interface {
	PutDNSBatch(recs []DNSRecord) int
}

// DNSTCPSource reads framed DNS responses from a TCP connection, flattens
// them, and hands the records to the ingest façade. When the façade can
// wait (PutDNSBatch), a full buffer stalls the reader and TCP flow control
// carries the stall back to the sender, so nothing is lost; otherwise
// records the façade rejects (stage buffer full) are dropped and counted —
// the paper's stream-buffer loss.
type DNSTCPSource struct {
	conn net.Conn
	// Clock assigns receive timestamps; tests and replays inject their own.
	Clock func() time.Time

	// IdleTimeout bounds the wait for the next frame. A resolver stream
	// that goes silent past it is closed and counted in Stats.Timeouts,
	// instead of pinning the read goroutine (and, under a listener, the
	// connection slot) forever on a wedged peer. 0 disables the bound.
	// Set before Run.
	IdleTimeout time.Duration

	// counts may be shared with a DNSListener aggregating several streams.
	counts *sourceCounters
}

// NewDNSTCPSource wraps conn.
func NewDNSTCPSource(conn net.Conn) *DNSTCPSource {
	return &DNSTCPSource{conn: conn, Clock: time.Now, counts: &sourceCounters{}}
}

// Run reads until ctx is cancelled or the connection closes. io.EOF and
// cancellation are clean ends and return nil. Each decoded response is
// offered as one batch (its flattened records share a receive timestamp).
// Run owns the connection and closes it on every exit path.
func (s *DNSTCPSource) Run(ctx context.Context, in Ingest) error {
	defer s.conn.Close()
	defer closeOnDone(ctx, func() { s.conn.Close() })()
	buf := make([]byte, 0, 4096)
	// One flatten buffer per connection: the offer copies records into the
	// stage queue, so the buffer is free again the moment it returns.
	recs := make([]DNSRecord, 0, 16)
	offer := in.OfferDNSBatch
	if p, ok := in.(dnsPutter); ok {
		offer = p.PutDNSBatch
	}
	for {
		if err := fpDNSRead.Inject(); err != nil {
			return fmt.Errorf("stream: dns tcp read: %w", err)
		}
		if s.IdleTimeout > 0 {
			if err := s.conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				if ignoreClosed(ctx, err) == nil {
					return nil
				}
				return fmt.Errorf("stream: dns tcp deadline: %w", err)
			}
		}
		frame, err := ReadFrame(s.conn, buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && ctx.Err() == nil {
				s.counts.timeouts.Add(1)
				return fmt.Errorf("stream: dns tcp: no frame for %v, closing idle connection", s.IdleTimeout)
			}
			if ignoreClosed(ctx, err) == nil {
				return nil
			}
			return fmt.Errorf("stream: dns tcp read: %w", err)
		}
		buf = frame[:0]
		s.counts.frames.Add(1)
		msg, err := dnswire.Decode(frame)
		if err != nil {
			s.counts.decodeError.Add(1)
			continue
		}
		if recs = FlattenResponseInto(recs[:0], msg, s.Clock()); len(recs) > 0 {
			accepted := offer(recs)
			s.counts.records.Add(uint64(len(recs)))
			s.counts.dropped.Add(uint64(len(recs) - accepted))
		}
	}
}

// Stats snapshots the source counters.
func (s *DNSTCPSource) Stats() SourceStats { return s.counts.snapshot() }

// DNSTCPSink writes DNS messages as length-prefixed frames; the emitter side
// used by the workload generator and the live-pipeline example.
type DNSTCPSink struct {
	w   io.Writer
	buf []byte
}

// NewDNSTCPSink wraps w.
func NewDNSTCPSink(w io.Writer) *DNSTCPSink {
	return &DNSTCPSink{w: w, buf: make([]byte, 0, 4096)}
}

// Send encodes and frames one message.
func (s *DNSTCPSink) Send(m *dnswire.Message) error {
	var err error
	s.buf, err = dnswire.AppendMessage(s.buf[:0], m)
	if err != nil {
		return err
	}
	return WriteFrame(s.w, s.buf)
}
