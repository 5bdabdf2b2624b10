package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where binaries, the Go build cache and per-run scratch live:
// inside the checkout, named by .gitignore.
const buildDir = ".bench_build"

// repoRoot finds the checkout root: the nearest ancestor of the working
// directory holding cmd/flowdns.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "flowdns", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("flowbench: cmd/flowdns not found above the working directory (run from the repository checkout)")
		}
		dir = parent
	}
}

// buildFlowdns compiles the system under test from the checkout's source.
// The Go build cache makes every call after the first a no-op.
func buildFlowdns(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "flowdns")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/flowdns")
	cmd.Dir = root
	out := filepath.Join(root, buildDir)
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(out, "gocache"), "GOPATH="+filepath.Join(out, "gopath"),
		"GOMODCACHE="+filepath.Join(out, "gopath", "pkg", "mod"),
		"GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("flowbench: build cmd/flowdns: %v\n%s", err, out)
	}
	return bin, nil
}

// tailBuf keeps the last few KiB of a child's stderr for error reports.
type tailBuf struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 8192 {
		t.b = t.b[len(t.b)-4096:]
	}
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// proc is one flowdns child.
type proc struct {
	name      string
	cmd       *exec.Cmd
	stdout    *os.File // read end of the child's stdout pipe; nil for the router
	stderr    tailBuf
	queryAddr string
	flowPort  int
	done      chan struct{} // closed when Wait returns
	waitErr   error
}

func freeTCP() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func freeUDP() (string, int, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", 0, err
	}
	defer pc.Close()
	return pc.LocalAddr().String(), pc.LocalAddr().(*net.UDPAddr).Port, nil
}

const fSetPipeSize = 1031 // F_SETPIPE_SZ

func startProc(name, bin string, wantStdout bool, args ...string) (*proc, error) {
	p := &proc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = &p.stderr
	// A harness that is killed must not leave children behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var childEnd *os.File
	if wantStdout {
		r, w, err := os.Pipe()
		if err != nil {
			return nil, err
		}
		// A 1 MiB pipe lets the child write whole sink buffers without
		// blocking on the reader's scheduling; failure leaves the default.
		syscall.Syscall(syscall.SYS_FCNTL, w.Fd(), fSetPipeSize, 1<<20)
		p.stdout, childEnd = r, w
		p.cmd.Stdout = w
	}
	err := p.cmd.Start()
	if childEnd != nil {
		childEnd.Close()
	}
	if err != nil {
		if p.stdout != nil {
			p.stdout.Close()
		}
		return nil, fmt.Errorf("flowbench: start %s: %w", name, err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the child to drain (SIGTERM) and waits; a child that ignores it
// for 20 s is killed.
func (p *proc) stop() error {
	if p.exited() {
		return p.waitErr
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return p.waitErr
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("flowbench: %s ignored SIGTERM for 20s, killed\n%s", p.name, p.stderr.String())
	}
}

func (p *proc) kill() {
	if !p.exited() {
		p.cmd.Process.Kill()
		<-p.done
	}
	if p.stdout != nil {
		p.stdout.Close()
	}
}

var httpClient = &http.Client{Timeout: 2 * time.Second}

// scrape fetches /metrics into name{labels} -> value.
func (p *proc) scrape() (map[string]float64, error) {
	resp, err := httpClient.Get("http://" + p.queryAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[key] = f
		}
	}
	return out, sc.Err()
}

// metricSum adds every sample of a metric across label sets; match, when
// non-empty, must appear in the label block.
func metricSum(m map[string]float64, name, match string) uint64 {
	var sum float64
	for k, v := range m {
		if k == name || (strings.HasPrefix(k, name+"{") && strings.Contains(k, match)) {
			sum += v
		}
	}
	return uint64(sum)
}

// cpuSeconds is the child's user+system CPU time so far.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("flowbench: malformed /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("flowbench: malformed /proc stat for %s", p.name)
	}
	const clockTick = 100 // USER_HZ, fixed at 100 on Linux
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB is the child's VmHWM.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("flowbench: no VmHWM for %s", p.name)
}

// sockMon reads the receive-queue depth and drop counters of the SUT's flow
// sockets from /proc/net/udp. The closed window uses it as a second bound: flowdns leaves
// SO_RCVBUF at the kernel default, which holds fewer datagrams than a
// saturated two-core box lets pile up while the reader goroutine waits for a
// P, so an unpaced sender loses ~0.1 % of flows to the kernel on every run.
type sockMon struct {
	f     *os.File
	ports [][]byte // ":%04X" suffixes of local_address
	buf   []byte
}

func newSockMon(ports []int) (*sockMon, error) {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return nil, err
	}
	m := &sockMon{f: f, buf: make([]byte, 64<<10)}
	for _, p := range ports {
		m.ports = append(m.ports, []byte(fmt.Sprintf(":%04X", p)))
	}
	return m, nil
}

func (m *sockMon) close() { m.f.Close() }

// scan re-reads /proc/net/udp and calls fn with the receive-queue bytes and
// the receive-drop count (datagrams) of every monitored port, by its index.
func (m *sockMon) scan(fn func(i int, rxQueue, drops uint64)) error {
	n, err := m.f.ReadAt(m.buf, 0)
	if err != nil && err != io.EOF {
		return err
	}
	for _, line := range bytes.Split(m.buf[:n], []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) < 13 {
			continue
		}
		for i, port := range m.ports {
			if !bytes.HasSuffix(f[1], port) {
				continue
			}
			_, rx, _ := bytes.Cut(f[4], []byte(":"))
			depth, err1 := strconv.ParseUint(string(rx), 16, 64)
			drops, err2 := strconv.ParseUint(string(f[len(f)-1]), 10, 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("flowbench: malformed /proc/net/udp line %q", line)
			}
			fn(i, depth, drops)
		}
	}
	return nil
}

// maxRxQueue returns the deepest receive queue, in bytes of socket-buffer
// accounting, over the monitored ports.
func (m *sockMon) maxRxQueue() (int, error) {
	deepest := uint64(0)
	err := m.scan(func(_ int, rx, _ uint64) { deepest = max(deepest, rx) })
	return int(deepest), err
}

// drops returns each monitored port's kernel receive-drop counter.
func (m *sockMon) drops() ([]uint64, error) {
	out := make([]uint64, len(m.ports))
	err := m.scan(func(i int, _, d uint64) { out[i] = d })
	return out, err
}

// rcvbufDefault is the kernel's default UDP receive buffer, which is what the
// SUT's flow sockets get.
func rcvbufDefault() int {
	data, err := os.ReadFile("/proc/sys/net/core/rmem_default")
	if err == nil {
		if v, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil && v > 0 {
			return v
		}
	}
	return 212992
}

// skbTruesize estimates what one datagram of n payload bytes charges against
// the receive buffer: the kmalloc bucket holding payload, headers and shared
// info, plus the sk_buff itself.
func skbTruesize(n int) int {
	size := 1024
	for size < n+512 {
		size *= 2
	}
	return size + 256
}

// sut is the running system under test: one process, or a router and two
// workers.
type sut struct {
	procs    []*proc // stop order: router first, then workers
	workers  []*proc // processes that correlate and write rows
	router   *proc   // nil for a single process
	flowAddr string  // where the harness sends flow datagrams
	dnsAddr  string  // where the harness streams DNS
	dir      string  // per-run scratch
}

func workerArgs(node, dnsAddr, flowAddr, queryAddr string) []string {
	return []string{
		"-role", "worker", "-node", node,
		"-dns-listen", dnsAddr, "-netflow-listen", flowAddr, "-query-addr", queryAddr,
		"-sink", "tsv", "-out", "-", "-stats-interval", "1h",
	}
}

// startSUT execs the workload's topology and returns once every admin plane
// answers (listeners are bound before the admin plane starts serving).
func startSUT(bin, root string, sp spec, extra []string) (*sut, error) {
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	s := &sut{dir: dir}
	fail := func(err error) (*sut, error) {
		s.destroy()
		return nil, err
	}
	nWorkers := 1
	if sp.Cluster {
		nWorkers = 2
	}
	var forwardTo []string
	for i := 0; i < nWorkers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		dnsAddr, err1 := freeTCP()
		queryAddr, err2 := freeTCP()
		flowAddr, flowPort, err3 := freeUDP()
		if err := errors.Join(err1, err2, err3); err != nil {
			return fail(err)
		}
		args := workerArgs(name, dnsAddr, flowAddr, queryAddr)
		if sp.SnapshotEvery != "" {
			args = append(args, "-snapshot", filepath.Join(dir, name+".snap"), "-snapshot-every", sp.SnapshotEvery)
		}
		args = append(args, extra...)
		p, err := startProc(name, bin, true, args...)
		if err != nil {
			return fail(err)
		}
		p.queryAddr, p.flowPort = queryAddr, flowPort
		s.procs = append(s.procs, p)
		s.workers = append(s.workers, p)
		s.flowAddr, s.dnsAddr = flowAddr, dnsAddr
		forwardTo = append(forwardTo, fmt.Sprintf("%s=%s/%s", name, flowAddr, dnsAddr))
	}
	if sp.Cluster {
		dnsAddr, err1 := freeTCP()
		queryAddr, err2 := freeTCP()
		flowAddr, flowPort, err3 := freeUDP()
		if err := errors.Join(err1, err2, err3); err != nil {
			return fail(err)
		}
		p, err := startProc("router", bin, false,
			"-role", "router", "-node", "router", "-forward-to", strings.Join(forwardTo, ","),
			"-dns-listen", dnsAddr, "-netflow-listen", flowAddr, "-query-addr", queryAddr)
		if err != nil {
			return fail(err)
		}
		p.queryAddr, p.flowPort = queryAddr, flowPort
		s.router = p
		s.procs = append([]*proc{p}, s.procs...)
		s.flowAddr, s.dnsAddr = flowAddr, dnsAddr
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, p := range s.procs {
		for {
			if p.exited() {
				return fail(fmt.Errorf("flowbench: %s exited during start-up: %v\n%s", p.name, p.waitErr, p.stderr.String()))
			}
			if _, err := p.scrape(); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("flowbench: %s admin plane never answered\n%s", p.name, p.stderr.String()))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return s, nil
}

// dnsApplied sums flowdns_dns_records_total over the workers.
func (s *sut) dnsApplied() (uint64, error) {
	var sum uint64
	for _, p := range s.workers {
		m, err := p.scrape()
		if err != nil {
			return 0, err
		}
		sum += metricSum(m, "flowdns_dns_records_total", "")
	}
	return sum, nil
}

// destroy kills whatever is still running and removes the run's scratch.
func (s *sut) destroy() {
	for _, p := range s.procs {
		p.kill()
	}
	os.RemoveAll(s.dir)
}
