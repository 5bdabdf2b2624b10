package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeService records its lifecycle: whether Serve started, what the
// correlator's drain flag read when its context was cancelled, and when it
// stopped.
type fakeService struct {
	name      string
	started   atomic.Bool
	stopped   atomic.Bool
	atCancel  func()
	serveErr  error
	stoppedAt atomic.Int64
}

func (f *fakeService) Name() string { return f.name }

func (f *fakeService) Serve(ctx context.Context) error {
	f.started.Store(true)
	<-ctx.Done()
	if f.atCancel != nil {
		f.atCancel()
	}
	f.stopped.Store(true)
	f.stoppedAt.Store(time.Now().UnixNano())
	return f.serveErr
}

// TestServicesLifecycle proves services start under Run, outlive the drain
// (their context cancels only after the sink closes, with the drain flag
// already up), and have their errors joined into Run's result.
func TestServicesLifecycle(t *testing.T) {
	drainingAtCancel := false
	svc := &fakeService{name: "probe", serveErr: errors.New("probe shutdown failed")}
	var corr *Correlator
	svc.atCancel = func() { drainingAtCancel = corr.Draining() }
	sink := &recordingSink{}
	corr = New(Config{Lanes: 1}, WithSink(sink), WithServices(svc, nil))

	if corr.Draining() {
		t.Fatal("draining before Run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- corr.Run(ctx) }()

	deadline := time.After(5 * time.Second)
	for !svc.started.Load() {
		select {
		case <-deadline:
			t.Fatal("service never started")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
	if !svc.stopped.Load() {
		t.Fatal("service still running after Run returned")
	}
	if !drainingAtCancel {
		t.Fatal("service context cancelled before the drain flag was up")
	}
	if !corr.Draining() {
		t.Fatal("drain flag dropped after Run")
	}
	if err == nil || !errors.Is(err, svc.serveErr) {
		t.Fatalf("Run error %v does not include the service error", err)
	}
	// The sink closed before the service was told to stop.
	if closedAt := sink.closedAt.Load(); closedAt == 0 || svc.stoppedAt.Load() < closedAt {
		t.Fatalf("service stopped (%d) before sink closed (%d)", svc.stoppedAt.Load(), closedAt)
	}
}

// recordingSink is a Sink that timestamps Close.
type recordingSink struct {
	closedAt atomic.Int64
}

func (s *recordingSink) WriteBatch(ctx context.Context, batch []CorrelatedFlow) error { return nil }
func (s *recordingSink) Flush() error                                                 { return nil }
func (s *recordingSink) Close() error {
	s.closedAt.Store(time.Now().UnixNano())
	return nil
}
