package stream

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/fault"
	"repro/internal/ipfix"
	"repro/internal/netflow"
)

// fpUDPRead injects read faults into the flow UDP read loops, batched and
// single alike (error ends the source like a dead socket; delay stalls it
// like a starved exporter).
var fpUDPRead = fault.New("stream.udp.read")

// batchConnReader is the batched-read contract Run drains when the
// platform and socket support it. The real implementation is the
// recvmmsg ring in batch_linux.go; the seam below lets tests substitute
// one on any platform.
type batchConnReader interface {
	// read blocks for at least one datagram and reports how many were
	// drained; errBatchUnsupported means the socket cannot do batch reads
	// after all and the source must degrade to the single-read loop.
	read() (int, error)
	// packet returns the i-th datagram of the last read, aliasing the
	// ring until the next read.
	packet(i int) []byte
}

// newBatchReaderFn builds the platform batch reader; a nil return means
// batch reads are unavailable (non-Linux build, no raw descriptor) and the
// single-read loop serves the socket. Tests swap it to exercise the
// fallback and runtime-degradation paths independent of build tags; the
// explicit nil check keeps a typed-nil *batchReader from turning into a
// non-nil interface.
var newBatchReaderFn = func(conn net.PacketConn, n, bufSize int) batchConnReader {
	if br := newBatchReader(conn, n, bufSize); br != nil {
		return br
	}
	return nil
}

// DefaultIngestBatch is the number of datagrams a FlowUDPSource drains per
// batched socket read when no explicit batch size is configured. 32 keeps
// the per-source buffer ring at 2 MiB (32 × 64 KiB datagram slots) while
// amortizing the syscall and the lookup-queue lock over enough packets that
// neither shows up in the ingest profile at line rate.
const DefaultIngestBatch = 32

// maxDatagram is the largest UDP payload a flow export datagram can carry;
// each ring slot is this large so batched reads never truncate.
const maxDatagram = 65535

// FlowUDPSource reads flow export datagrams — NetFlow v5, NetFlow v9, or
// IPFIX, distinguished by the version word (5/9/10) — from a packet
// connection and offers the decoded flow records through the ingest façade.
// The paper names both NetFlow and IPFIX as the flow formats ISPs export.
//
// On platforms and connections that support it, datagrams are drained in
// recvmmsg batches: one syscall fills a reusable ring of up to BatchSize
// message buffers, and the whole batch is decoded into a single
// OfferFlowBatch call, so both the syscall cost and the lookup-queue lock
// are paid once per batch instead of once per packet. Everywhere else —
// non-Linux builds, connections that do not expose a raw file descriptor
// (test fakes, tunnels), or kernels rejecting recvmmsg — the source falls
// back to the classic one-read-per-datagram loop with identical decoding,
// accounting, and drop semantics.
type FlowUDPSource struct {
	conn       net.PacketConn
	cache      *netflow.TemplateCache
	ipfixCache *ipfix.Cache

	// BatchSize is the number of datagrams drained per batched read
	// (the ring size). 0 means DefaultIngestBatch; 1 disables batching and
	// forces the single-read loop. Set before Run.
	BatchSize int

	// Per-source decode scratch, reused across datagrams: the record
	// accumulator both read loops decode into. The ingest façade copies
	// offered records into the stage queue, so it is free for reuse the
	// moment an offer returns.
	batch   []netflow.FlowRecord
	singleB []byte // single-read mode datagram buffer

	counts sourceCounters
}

// NewFlowUDPSource wraps conn. Fresh template caches (v9 and IPFIX) are
// created per source, matching one cache per collector socket.
func NewFlowUDPSource(conn net.PacketConn) *FlowUDPSource {
	return &FlowUDPSource{
		conn:       conn,
		cache:      netflow.NewTemplateCache(),
		ipfixCache: ipfix.NewCache(),
	}
}

// batchSize resolves the configured ring size.
func (s *FlowUDPSource) batchSize() int {
	if s.BatchSize > 0 {
		return s.BatchSize
	}
	return DefaultIngestBatch
}

// Run reads datagrams until ctx is cancelled or the connection is closed
// (both return nil); other errors are returned. Run owns the socket and
// closes it on every exit path. Batched reads are attempted first; if the
// connection or platform cannot do them, Run degrades to the single-read
// loop without surfacing an error.
func (s *FlowUDPSource) Run(ctx context.Context, in Ingest) error {
	defer s.conn.Close()
	defer closeOnDone(ctx, func() { s.conn.Close() })()
	if n := s.batchSize(); n > 1 {
		if br := newBatchReaderFn(s.conn, n, maxDatagram); br != nil {
			err, handled := s.runBatched(ctx, br, in)
			if handled {
				return err
			}
			// Kernel refused recvmmsg on this socket: degrade below.
		}
	}
	return s.runSingle(ctx, in)
}

// runBatched drains the socket in recvmmsg batches. handled reports whether
// the source ran to completion here; false means batch reads turned out to
// be unsupported at runtime and the caller should fall back.
func (s *FlowUDPSource) runBatched(ctx context.Context, br batchConnReader, in Ingest) (err error, handled bool) {
	for {
		if err := fpUDPRead.Inject(); err != nil {
			return fmt.Errorf("stream: netflow udp batch read: %w", err), true
		}
		n, err := br.read()
		if err != nil {
			if errors.Is(err, errBatchUnsupported) {
				return nil, false
			}
			if ignoreClosed(ctx, err) == nil {
				return nil, true
			}
			return fmt.Errorf("stream: netflow udp batch read: %w", err), true
		}
		s.counts.frames.Add(uint64(n))
		recs := s.batch[:0]
		for i := 0; i < n; i++ {
			recs = s.appendDecode(recs, br.packet(i))
		}
		s.batch = recs
		s.offer(recs, in)
	}
}

// runSingle is the fallback loop: one blocking read, one decode, one offer
// per datagram.
func (s *FlowUDPSource) runSingle(ctx context.Context, in Ingest) error {
	if s.singleB == nil {
		s.singleB = make([]byte, maxDatagram)
	}
	for {
		if err := fpUDPRead.Inject(); err != nil {
			return fmt.Errorf("stream: netflow udp read: %w", err)
		}
		n, _, err := s.conn.ReadFrom(s.singleB)
		if err != nil {
			if ignoreClosed(ctx, err) == nil {
				return nil
			}
			return fmt.Errorf("stream: netflow udp read: %w", err)
		}
		s.counts.frames.Add(1)
		s.ingest(s.singleB[:n], in)
	}
}

// ingest decodes one datagram and offers its records as one batch; split
// out so tests and in-process pipelines can bypass the socket.
func (s *FlowUDPSource) ingest(pkt []byte, in Ingest) {
	s.batch = s.appendDecode(s.batch[:0], pkt)
	s.offer(s.batch, in)
}

// appendDecode parses one datagram and appends its records to dst,
// returning the extended slice, so both read loops write straight into
// the record accumulator. A malformed datagram counts one decode error
// and appends nothing.
func (s *FlowUDPSource) appendDecode(dst []netflow.FlowRecord, pkt []byte) []netflow.FlowRecord {
	if len(pkt) < 2 {
		s.counts.decodeError.Add(1)
		return dst
	}
	version := uint16(pkt[0])<<8 | uint16(pkt[1])
	switch version {
	case 5:
		out, err := netflow.AppendV5Flows(pkt, dst)
		if err != nil {
			s.counts.decodeError.Add(1)
			return dst
		}
		return out
	case 9:
		p, err := netflow.DecodeV9(pkt, s.cache)
		if err != nil {
			s.counts.decodeError.Add(1)
			return dst
		}
		return append(dst, p.Records...)
	case 10:
		m, err := ipfix.Decode(pkt, s.ipfixCache)
		if err != nil {
			s.counts.decodeError.Add(1)
			return dst
		}
		return append(dst, m.Records...)
	default:
		s.counts.decodeError.Add(1)
		return dst
	}
}

// offer hands recs to the façade as one batch and accounts the outcome.
func (s *FlowUDPSource) offer(recs []netflow.FlowRecord, in Ingest) {
	if len(recs) == 0 {
		return
	}
	accepted := in.OfferFlowBatch(recs)
	s.counts.records.Add(uint64(len(recs)))
	s.counts.dropped.Add(uint64(len(recs) - accepted))
}

// Stats snapshots the source counters.
func (s *FlowUDPSource) Stats() SourceStats { return s.counts.snapshot() }

// FlowUDPSink batches flow records into NetFlow datagrams and writes them to
// a PacketConn — the exporter side used by the workload generator.
type FlowUDPSink struct {
	conn     net.Conn
	template netflow.Template
	seq      uint32
	sourceID uint32
	batch    []netflow.FlowRecord
	batchCap int
	// now stamps export headers when the first batched record carries no
	// timestamp; tests inject their own clock.
	now func() time.Time
}

// NewFlowUDPSink creates an exporter writing v9 datagrams under the
// standard template, batching up to batchCap records per datagram.
func NewFlowUDPSink(conn net.Conn, sourceID uint32, batchCap int) *FlowUDPSink {
	if batchCap < 1 {
		batchCap = 20
	}
	return &FlowUDPSink{
		conn:     conn,
		template: netflow.StandardTemplate(),
		sourceID: sourceID,
		batchCap: batchCap,
		now:      time.Now,
	}
}

// Send queues one record, flushing a full batch.
func (s *FlowUDPSink) Send(fr netflow.FlowRecord) error {
	s.batch = append(s.batch, fr)
	if len(s.batch) >= s.batchCap {
		return s.Flush()
	}
	return nil
}

// Flush writes any batched records as one datagram. The batch is cleared
// and the sequence number consumed only after a successful write: a failed
// encode or write leaves both intact, so the caller can retry Flush without
// losing the batched records or burning a sequence number the collector
// never saw (which would read as exporter loss on the other side).
func (s *FlowUDPSink) Flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	// Header export time comes from the first record; replayed or synthetic
	// batches may carry zero timestamps, which would stamp the header with
	// the Unix epoch and make every collector-side age calculation absurd —
	// fall back to the wall clock for those.
	ts := s.batch[0].Timestamp
	if ts.IsZero() {
		ts = s.now()
	}
	pkt, err := netflow.EncodeV9(netflow.V9Header{
		SequenceNum: s.seq + 1,
		SourceID:    s.sourceID,
		UnixSecs:    uint32(ts.Unix()),
	}, s.template, s.batch)
	if err != nil {
		return err
	}
	if _, err = s.conn.Write(pkt); err != nil {
		return err
	}
	s.seq++
	s.batch = s.batch[:0]
	return nil
}
