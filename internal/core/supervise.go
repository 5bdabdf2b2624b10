package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// Component names under supervision: a lane worker's fill and look steps,
// the Write workers, and the checkpointer. Services appear as
// "service:<Name>".
const (
	compFill       = "fill"
	compLook       = "look"
	compWrite      = "write"
	compCheckpoint = "checkpoint"
)

// Failpoints planted in the pipeline core: core.fill.record and
// core.look.record poison one record (arm with "N*panic" or "N*error" —
// an injected error panics too, so either spec exercises containment).
// The sink-side points live in retrysink.go.
var (
	fpFillRecord = fault.New("core.fill.record")
	fpLookRecord = fault.New("core.look.record")
)

// compHealth is one supervised component's counters.
type compHealth struct {
	name     string
	panics   atomic.Uint64
	restarts atomic.Uint64
}

// supervisor tracks panic/restart counters per supervised component and
// holds the restart backoff bounds (Config.RestartBackoffMin/Max). A
// component registers on first touch.
type supervisor struct {
	backoffMin, backoffMax time.Duration

	mu    sync.Mutex
	comps map[string]*compHealth
}

// comp returns (creating if needed) the named component's health block.
func (s *supervisor) comp(name string) *compHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.comps == nil {
		s.comps = map[string]*compHealth{}
	}
	h, ok := s.comps[name]
	if !ok {
		h = &compHealth{name: name}
		s.comps[name] = h
	}
	return h
}

// SupervisedStatus is one component's externally visible supervision state.
type SupervisedStatus struct {
	// Name is the component: "fill", "look", "write", "checkpoint", or
	// "service:<name>".
	Name string `json:"name"`
	// Panics counts contained panics in the component.
	Panics uint64 `json:"panics"`
	// Restarts counts supervised restarts of the component's goroutine.
	Restarts uint64 `json:"restarts"`
}

// snapshot returns every component's counters, sorted by name.
func (s *supervisor) snapshot() []SupervisedStatus {
	s.mu.Lock()
	hs := make([]*compHealth, 0, len(s.comps))
	for _, h := range s.comps {
		hs = append(hs, h)
	}
	s.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	out := make([]SupervisedStatus, len(hs))
	for i, h := range hs {
		out[i] = SupervisedStatus{Name: h.name, Panics: h.panics.Load(), Restarts: h.restarts.Load()}
	}
	return out
}

// guard runs fn, containing a panic: the panic is counted against h and
// swallowed. It reports whether fn completed normally.
func guard(h *compHealth, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			h.panics.Add(1)
		}
	}()
	fn()
	return true
}

// guardErr runs fn, converting a panic into a counted error — the shape
// sink calls need, where the caller must learn the batch did not land.
func guardErr(h *compHealth, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			h.panics.Add(1)
			err = fmt.Errorf("core: %s: contained panic: %v", h.name, r)
		}
	}()
	return fn()
}

// nextBackoff doubles d up to the supervisor's ceiling.
func (s *supervisor) nextBackoff(d time.Duration) time.Duration {
	if d *= 2; d > s.backoffMax {
		d = s.backoffMax
	}
	return d
}

// superviseLoop runs body until it returns normally, restarting it with
// exponential backoff after each contained panic. Worker bodies return
// normally when their queues are closed and drained, so a healthy drain always ends
// the loop; the backoff only engages on the abnormal path.
func (s *supervisor) superviseLoop(h *compHealth, body func()) {
	backoff := s.backoffMin
	for !guard(h, body) {
		h.restarts.Add(1)
		time.Sleep(backoff)
		backoff = s.nextBackoff(backoff)
	}
}

// serve is the supervised Service loop: a Serve that panics or returns
// while ctx is still live is restarted with exponential backoff instead of
// leaving the pipeline without its query plane or store maintenance. The
// last abnormal error is returned so a flapping service is never silent.
func (s *supervisor) serve(ctx context.Context, svc Service) error {
	h := s.comp("service:" + svc.Name())
	backoff := s.backoffMin
	var lastErr error
	for {
		if err := guardErr(h, func() error { return svc.Serve(ctx) }); err != nil {
			lastErr = fmt.Errorf("core: service %s: %w", svc.Name(), err)
		}
		if ctx.Err() != nil {
			return lastErr
		}
		h.restarts.Add(1)
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		if ctx.Err() != nil {
			return lastErr
		}
		backoff = s.nextBackoff(backoff)
	}
}

// ingestGuarded is the lane worker's contained ingestBatch. ingestBatch
// flushes its stats tally only after the whole batch lands, and store
// inserts are idempotent last-write-wins puts, so on a contained panic the
// batch is reprocessed record-at-a-time: every healthy record is applied
// (and counted) exactly once, and only the poisoned record is dropped.
func (c *Correlator) ingestGuarded(h *compHealth, batch []stream.DNSRecord, in *interner, buf *fillBuf) {
	if guard(h, func() { c.ingestBatch(batch, in, buf) }) {
		return
	}
	for i := range batch {
		if !guard(h, func() { c.ingestBatch(batch[i:i+1], in, buf) }) {
			c.stats.poisoned.Add(1)
		}
	}
}

// correlateGuarded is the lane worker's contained per-record correlation.
// It reports whether the record correlated normally; a contained panic
// leaves cf unusable and the caller drops that one output slot. The
// failpoint fires before any tally mutation, so a poisoned record is
// invisible in the flow counters and visible only in Poisoned/Panics.
func (c *Correlator) correlateGuarded(h *compHealth, cf *CorrelatedFlow, fr *netflow.FlowRecord, tally *lookTally) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			h.panics.Add(1)
		}
	}()
	if err := fpLookRecord.Inject(); err != nil {
		panic(err)
	}
	c.correlateInto(cf, fr, tally)
	return true
}
