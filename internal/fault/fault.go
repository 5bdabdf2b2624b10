// Package fault implements named failpoints: registered sites in the
// pipeline where tests, operators, and the chaos harness can inject an
// error, a delay, a panic, or a short write without recompiling.
//
// The design follows the failpoint discipline of production Go storage
// systems: every site is a package-level *Point created once with New, the
// disabled fast path is a single atomic pointer load (no map lookup, no
// allocation, no branch beyond the nil check), and arming is entirely
// dynamic — via the FLOWDNS_FAULTS environment variable, the daemon's
// config/flags, or the query plane's /admin/fault endpoint.
//
// Spec grammar (one failpoint):
//
//	[count*]action[(arg)]
//
//	error            return ErrInjected from Inject
//	error(msg)       same, with msg in the error text
//	delay(150ms)     sleep that long, then return nil
//	panic            panic from Inject
//	panic(msg)       same, with msg in the panic value
//	shortwrite(512)  Writer() passes 512 bytes through, then fails the
//	                 write with an injected ENOSPC-style error
//
// A leading "count*" bounds how many times the point fires: "2*panic"
// panics exactly twice, then the point disarms itself back to the
// zero-overhead path. Without a count the point fires until disarmed.
//
// Multiple points are armed at once with a list spec:
//
//	name=spec[;name=spec...]        (',' is accepted too)
package fault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected error wraps; callers test
// provenance with errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("fault: injected")

// Env is the environment variable the daemon arms failpoints from at boot.
const Env = "FLOWDNS_FAULTS"

// Action is what an armed failpoint does when hit.
type Action uint8

const (
	// ActionError makes Inject return an injected error.
	ActionError Action = iota
	// ActionDelay makes Inject sleep before returning nil.
	ActionDelay
	// ActionPanic makes Inject panic.
	ActionPanic
	// ActionShortWrite makes Writer wrap the target so that writes fail
	// with an injected error after a byte allowance — the torn-write /
	// ENOSPC simulation for disk paths. Inject itself returns nil.
	ActionShortWrite
)

func (a Action) String() string {
	switch a {
	case ActionError:
		return "error"
	case ActionDelay:
		return "delay"
	case ActionPanic:
		return "panic"
	case ActionShortWrite:
		return "shortwrite"
	}
	return fmt.Sprintf("action(%d)", a)
}

// arming is the immutable armed state swapped into a Point. A nil arming
// pointer is the disabled state.
type arming struct {
	spec   string
	action Action
	msg    string        // error/panic text
	delay  time.Duration // ActionDelay
	bytes  int64         // ActionShortWrite allowance per armed writer
	limit  int64         // fire budget; < 0 means unlimited
	fired  atomic.Int64
}

// take consumes one unit of the fire budget; false means the budget is
// exhausted and the point should behave as disabled.
func (a *arming) take() bool {
	if a.limit < 0 {
		return true
	}
	return a.fired.Add(1) <= a.limit
}

// Point is one named injection site. Create each site exactly once at
// package init with New and call Inject (or Writer) where the fault should
// surface. The zero-cost contract: a disabled Point costs one atomic load.
type Point struct {
	name  string
	armed atomic.Pointer[arming]
	hits  atomic.Uint64
}

// Name returns the site name.
func (p *Point) Name() string { return p.name }

// Hits returns how many times the point has fired since process start
// (across all armings).
func (p *Point) Hits() uint64 { return p.hits.Load() }

// InjectedError is the concrete error Inject and short writers return.
type InjectedError struct {
	Point string
	Msg   string
}

func (e *InjectedError) Error() string {
	if e.Msg == "" {
		return "fault: injected at " + e.Point
	}
	return "fault: injected at " + e.Point + ": " + e.Msg
}

// Is reports ErrInjected identity so errors.Is(err, fault.ErrInjected)
// holds for every injected error.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Inject evaluates the failpoint. Disabled points return nil after one
// atomic load. Armed points return an injected error (ActionError), sleep
// (ActionDelay), panic (ActionPanic), or return nil (ActionShortWrite —
// the fault lives in Writer instead).
func (p *Point) Inject() error {
	a := p.armed.Load()
	if a == nil {
		return nil
	}
	return p.fire(a)
}

// fire is the armed slow path, split out so Inject stays inlinable.
func (p *Point) fire(a *arming) error {
	if a.action == ActionShortWrite {
		// The write-path helper (Writer) carries this action and owns its
		// budget; Inject is a free no-op so a site can guard both its
		// control flow and its writer with the same point.
		return nil
	}
	if !a.take() {
		// Budget exhausted: self-disarm back to the zero-overhead path.
		p.armed.CompareAndSwap(a, nil)
		return nil
	}
	p.hits.Add(1)
	switch a.action {
	case ActionError:
		return &InjectedError{Point: p.name, Msg: a.msg}
	case ActionDelay:
		time.Sleep(a.delay)
		return nil
	case ActionPanic:
		msg := a.msg
		if msg == "" {
			msg = "injected panic"
		}
		panic(fmt.Sprintf("fault: %s: %s", p.name, msg))
	}
	return nil
}

// Writer wraps w with the point's short-write fault when one is armed;
// otherwise it returns w unchanged. Each armed call consumes one unit of
// the fire budget, so "1*shortwrite(512)" tears exactly one file.
func (p *Point) Writer(w io.Writer) io.Writer {
	a := p.armed.Load()
	if a == nil || a.action != ActionShortWrite {
		return w
	}
	if !a.take() {
		p.armed.CompareAndSwap(a, nil)
		return w
	}
	p.hits.Add(1)
	return &shortWriter{w: w, remain: a.bytes, point: p.name}
}

// shortWriter passes remain bytes through, then fails every write with an
// injected error — the userspace view of a device that ran out of space
// mid-file, leaving a torn prefix behind.
type shortWriter struct {
	w      io.Writer
	remain int64
	point  string
}

func (s *shortWriter) Write(b []byte) (int, error) {
	if s.remain <= 0 {
		return 0, &InjectedError{Point: s.point, Msg: "short write (no space)"}
	}
	if int64(len(b)) <= s.remain {
		n, err := s.w.Write(b)
		s.remain -= int64(n)
		return n, err
	}
	n, err := s.w.Write(b[:s.remain])
	s.remain -= int64(n)
	if err == nil {
		err = &InjectedError{Point: s.point, Msg: "short write (no space)"}
	}
	return n, err
}

// registry of every created point, keyed by name.
var (
	regMu  sync.Mutex
	points = map[string]*Point{}
)

// New registers a named failpoint. Sites are package-level:
//
//	var fpUDPRead = fault.New("stream.udp.read")
//
// Registering the same name twice returns the existing point, so tests
// and refactors cannot split a site in two.
func New(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := points[name]; ok {
		return p
	}
	p := &Point{name: name}
	points[name] = p
	return p
}

// Lookup finds a registered point, or nil.
func Lookup(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	return points[name]
}

// Names lists every registered site, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(points))
	for n := range points {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Enable arms a registered point from a spec string. Unknown names and
// malformed specs are errors — an operator typo must not silently arm
// nothing.
func Enable(name, spec string) error {
	p := Lookup(name)
	if p == nil {
		return fmt.Errorf("fault: unknown failpoint %q (have %v)", name, Names())
	}
	a, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("fault: %s: %w", name, err)
	}
	p.armed.Store(a)
	return nil
}

// Disable disarms a point; it reports whether the point exists.
func Disable(name string) bool {
	p := Lookup(name)
	if p == nil {
		return false
	}
	p.armed.Store(nil)
	return true
}

// DisableAll disarms every registered point (test teardown).
func DisableAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range points {
		p.armed.Store(nil)
	}
}

// Status is one registered point's externally visible state.
type Status struct {
	Name string `json:"name"`
	// Spec is the armed spec, or "" when the point is disabled.
	Spec string `json:"spec,omitempty"`
	// Hits counts fires since process start.
	Hits uint64 `json:"hits"`
}

// List snapshots every registered point, sorted by name.
func List() []Status {
	regMu.Lock()
	ps := make([]*Point, 0, len(points))
	for _, p := range points {
		ps = append(ps, p)
	}
	regMu.Unlock()
	sort.Slice(ps, func(i, j int) bool { return ps[i].name < ps[j].name })
	out := make([]Status, len(ps))
	for i, p := range ps {
		st := Status{Name: p.name, Hits: p.hits.Load()}
		if a := p.armed.Load(); a != nil {
			st.Spec = a.spec
		}
		out[i] = st
	}
	return out
}

// EnableSpecs arms points from a "name=spec[;name=spec...]" list (';' or
// ',' separated). Empty input is a no-op.
func EnableSpecs(list string) error {
	for _, item := range strings.FieldsFunc(list, func(r rune) bool { return r == ';' || r == ',' }) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, spec, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("fault: malformed entry %q (want name=spec)", item)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// FromEnv arms points from the FLOWDNS_FAULTS environment variable.
func FromEnv() error { return EnableSpecs(os.Getenv(Env)) }

// ValidateSpec checks a spec's grammar without arming anything — config
// validation, where the named point's package may not even be linked yet.
func ValidateSpec(spec string) error {
	_, err := parseSpec(spec)
	return err
}

// parseSpec parses "[count*]action[(arg)]".
func parseSpec(spec string) (*arming, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return nil, errors.New("empty spec")
	}
	a := &arming{spec: s, limit: -1}
	if count, rest, ok := strings.Cut(s, "*"); ok {
		n, err := strconv.ParseInt(strings.TrimSpace(count), 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q in spec %q", count, spec)
		}
		a.limit = n
		s = strings.TrimSpace(rest)
	}
	action, arg := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("unclosed argument in spec %q", spec)
		}
		action, arg = s[:i], s[i+1:len(s)-1]
	}
	switch action {
	case "error":
		a.action = ActionError
		a.msg = arg
	case "delay", "sleep":
		a.action = ActionDelay
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay %q in spec %q", arg, spec)
		}
		a.delay = d
	case "panic":
		a.action = ActionPanic
		a.msg = arg
	case "shortwrite":
		a.action = ActionShortWrite
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad shortwrite allowance %q in spec %q", arg, spec)
		}
		a.bytes = n
	default:
		return nil, fmt.Errorf("unknown action %q in spec %q (want error|delay|panic|shortwrite)", action, spec)
	}
	return a, nil
}
