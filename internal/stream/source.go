package stream

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netflow"
)

// Ingest is the stable façade through which sources feed the correlator.
// Offers never block: a short batch count means the stage buffer
// overflowed and the records were dropped — the paper's stream-buffer
// loss. The correlator implements Ingest; sources never see its internal
// queues. A single record is offered as a batch of one.
type Ingest interface {
	// OfferDNSBatch places a batch of DNS records on the FillUp stage and
	// returns how many were accepted.
	OfferDNSBatch(recs []DNSRecord) int
	// OfferFlowBatch places a batch of flow records on the LookUp stage and
	// returns how many were accepted.
	OfferFlowBatch(frs []netflow.FlowRecord) int
}

// Source is one input stream of the pipeline: a TCP DNS feed, a UDP flow
// socket, a capture file, a synthetic generator. Run reads until ctx is
// cancelled or the stream ends, offering every decoded record to in.
// A clean end of stream (EOF, socket closed by cancellation) returns nil.
type Source interface {
	Run(ctx context.Context, in Ingest) error
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(ctx context.Context, in Ingest) error

// Run calls f.
func (f SourceFunc) Run(ctx context.Context, in Ingest) error { return f(ctx, in) }

// SourceStats aggregates what a stream source observed.
type SourceStats struct {
	Frames      uint64 // frames or datagrams read off the wire
	DecodeError uint64 // frames that failed to decode
	Records     uint64 // records flattened out of decoded frames
	Dropped     uint64 // records the ingest façade rejected (stage overflow)
	Timeouts    uint64 // connections closed for exceeding the idle timeout
}

// sourceCounters is the shared atomic counter block behind SourceStats.
type sourceCounters struct {
	frames      atomic.Uint64
	decodeError atomic.Uint64
	records     atomic.Uint64
	dropped     atomic.Uint64
	timeouts    atomic.Uint64
}

func (c *sourceCounters) snapshot() SourceStats {
	return SourceStats{
		Frames:      c.frames.Load(),
		DecodeError: c.decodeError.Load(),
		Records:     c.records.Load(),
		Dropped:     c.dropped.Load(),
		Timeouts:    c.timeouts.Load(),
	}
}

// closeOnDone arranges for closer to run when ctx is cancelled, unblocking
// a source stuck in a socket read. The returned stop func releases the
// watcher; sources defer it so a clean exit does not leak the goroutine.
func closeOnDone(ctx context.Context, closer func()) (stop func() bool) {
	return context.AfterFunc(ctx, closer)
}

// ignoreClosed maps the errors a deliberately closed connection produces to
// a clean nil when the close was ours (cancellation).
func ignoreClosed(ctx context.Context, err error) error {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// DNSListener accepts TCP connections and runs one DNSTCPSource per
// accepted connection — the paper's topology where each ISP resolver
// stream is one long-lived connection into the collector. It owns the
// listener: cancellation closes it and every active connection drains.
type DNSListener struct {
	ln net.Listener
	// OnStreamError is invoked when one accepted connection dies with a
	// read error (which ends that stream but not the listener). Nil logs
	// through the standard logger so a dying resolver stream is never
	// silent.
	OnStreamError func(error)
	// IdleTimeout is handed to every accepted connection's DNSTCPSource:
	// a stream silent past it is closed (and counted in Stats.Timeouts)
	// instead of holding its goroutine forever. 0 disables the bound.
	IdleTimeout time.Duration
	counts      sourceCounters
}

// NewDNSListener wraps ln.
func NewDNSListener(ln net.Listener) *DNSListener { return &DNSListener{ln: ln} }

// Addr returns the listen address.
func (l *DNSListener) Addr() net.Addr { return l.ln.Addr() }

// Run accepts until ctx is cancelled or the listener fails. Per-connection
// read errors are not fatal to the listener; they end that stream only
// and are reported through OnStreamError. Run owns the listener and every
// accepted connection: all are closed before it returns, including when
// Accept fails abnormally (so a listener error propagates instead of
// blocking behind long-lived streams).
func (l *DNSListener) Run(ctx context.Context, in Ingest) error {
	var conns sync.WaitGroup
	defer conns.Wait()
	// Cancelling the child context ends every per-connection source when
	// Run exits on an Accept error; conns.Wait (above) then completes.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer l.ln.Close()
	defer closeOnDone(ctx, func() { l.ln.Close() })()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return ignoreClosed(ctx, err)
		}
		src := NewDNSTCPSource(conn)
		src.counts = &l.counts
		src.IdleTimeout = l.IdleTimeout
		conns.Add(1)
		go func() {
			defer conns.Done()
			if err := src.Run(ctx, in); err != nil {
				if l.OnStreamError != nil {
					l.OnStreamError(err)
				} else {
					log.Printf("stream: dns stream ended: %v", err)
				}
			}
		}()
	}
}

// Stats aggregates counters across every connection accepted so far.
func (l *DNSListener) Stats() SourceStats { return l.counts.snapshot() }
