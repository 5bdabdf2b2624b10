package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ipStat is what the reader keeps per oracle-sampled source IP.
type ipStat struct {
	rows  int
	names map[string]int
}

type delaySample struct {
	atUs    uint32 // when the row was seen, µs since run start
	delayUs uint32
}

// rowReader consumes one child's stdout. Work per row is constant: find the
// row end, hash the source IP; 1/stampEvery rows give a delay sample and
// 1/oracleShare of source IPs keep per-name totals.
type rowReader struct {
	t0      time.Time
	rows    *atomic.Uint64 // shared across readers: the closed window's feedback
	seen    uint64
	bytes   uint64
	samples []delaySample
	ips     map[string]*ipStat
	garbled int
	err     error
}

func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

func (r *rowReader) run(f *os.File) {
	buf := make([]byte, 1<<20)
	fill := 0
	for {
		n, err := f.Read(buf[fill:])
		if n > 0 {
			nowUs := uint32(time.Since(r.t0) / time.Microsecond)
			data := buf[:fill+n]
			r.bytes += uint64(n)
			p, count := 0, uint64(0)
			for {
				i := bytes.IndexByte(data[p:], '\n')
				if i < 0 {
					break
				}
				r.line(data[p:p+i], nowUs)
				p += i + 1
				count++
			}
			r.rows.Add(count)
			fill = copy(buf, data[p:])
			if fill == len(buf) {
				r.err = errors.New("flowbench: output row longer than 1 MiB")
				io.Copy(io.Discard, f) // keep the child from blocking on a full pipe
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			return
		}
	}
}

// field cuts the next tab-separated field off line.
func field(line []byte) (f, rest []byte, ok bool) {
	i := bytes.IndexByte(line, '\t')
	if i < 0 {
		return line, nil, false
	}
	return line[:i], line[i+1:], true
}

// line handles one TSV row:
// timestamp, srcIP, dstIP, bytes, packets(=stamp), name, tier, chainLen.
func (r *rowReader) line(line []byte, nowUs uint32) {
	r.seen++
	_, rest, ok := field(line)
	ip, rest, ok2 := field(rest)
	if !ok || !ok2 {
		r.garbled++
		return
	}
	wantStamp := r.seen%stampEvery == 0
	wantName := sampledIP(ip)
	if !wantStamp && !wantName {
		return
	}
	_, rest, _ = field(rest)      // dstIP
	_, rest, _ = field(rest)      // bytes
	pkts, rest, ok := field(rest) // packets
	name, _, ok2 := field(rest)
	if !ok || !ok2 {
		r.garbled++
		return
	}
	if wantStamp {
		if v, err := strconv.ParseUint(string(pkts), 10, 32); err == nil && v > 0 && uint32(v-1) <= nowUs {
			r.samples = append(r.samples, delaySample{nowUs, nowUs - uint32(v-1)})
		}
	}
	if wantName {
		st := r.ips[string(ip)]
		if st == nil {
			st = &ipStat{names: map[string]int{}}
			r.ips[string(ip)] = st
		}
		st.rows++
		st.names[string(name)]++
	}
}

// ledger is the per-run record conservation check. Terms count flow records
// unless named datagrams; Unexplained is what the other terms do not account
// for and must be zero for the run to pass.
type ledger struct {
	Sent         uint64 `json:"sent"`
	Rows         uint64 `json:"rows"`
	KernelDrops  uint64 `json:"kernel_dropped_datagrams"`        // socket the harness sends to
	WorkerDrops  uint64 `json:"worker_kernel_dropped_datagrams"` // cluster: worker sockets behind the router
	LookLost     uint64 `json:"look_dropped_sampled"`
	WriteLost    uint64 `json:"write_dropped_sampled"`
	RouterSpill  uint64 `json:"router_spill_dropped"`
	Unexplained  int64  `json:"unexplained"`
	RouterRouted uint64 `json:"router_routed,omitempty"`
	// RouterUnexplained is routed − (Σ worker rows + worker-side loss + spill).
	RouterUnexplained int64 `json:"router_unexplained,omitempty"`

	DNSSent        uint64 `json:"dns_sent"`
	DNSExpected    uint64 `json:"dns_expected_applied"` // CNAMEs count once per worker
	DNSApplied     uint64 `json:"dns_applied"`
	DNSInvalid     uint64 `json:"dns_invalid"`
	DNSFillLost    uint64 `json:"dns_fill_dropped_sampled"`
	DNSRouterLost  uint64 `json:"dns_router_dropped"`
	DNSUnexplained int64  `json:"dns_unexplained"`
}

// result is everything one end-to-end run measured.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	WindowS  float64 `json:"window_s"`

	FlowsPerS     float64   `json:"flows_per_s"` // median over one-second slices
	FlowsPerSMean float64   `json:"flows_per_s_mean"`
	CPUsPerMflow  float64   `json:"cpu_s_per_mflow"`
	PeakRSSMB     float64   `json:"peak_rss_mb"`
	DelayP50Ms    float64   `json:"write_delay_p50_ms"`
	DelayTailMs   float64   `json:"write_delay_tail_ms"`
	DelayTailPct  float64   `json:"write_delay_tail_percentile"`
	DelaySamples  int       `json:"write_delay_samples"`
	Delivered     float64   `json:"delivered_ratio"`
	LossRatio     float64   `json:"loss_ratio"`
	SetupS        float64   `json:"setup_s"`
	SetupAllS     []float64 `json:"setup_all_s"`
	Attempted     uint64    `json:"attempted"`
	Failed        uint64    `json:"failed"`
	FlowsLost     uint64    `json:"flows_lost"`
	BadNames      uint64    `json:"bad_names"`
	SampledRows   uint64    `json:"oracle_rows_checked"`
	CorrelatedPct float64   `json:"oracle_rows_named_pct"`

	GenLateP99Ms float64 `json:"gen_late_p99_ms"`
	GenCeiling   float64 `json:"gen_ceiling_flows_per_s"`
	HarnessCores float64 `json:"harness_cpu_cores"`
	DNSPerS      float64 `json:"dns_records_per_s"`

	Ledger   ledger   `json:"ledger"`
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems"`
}

// fail marks the run incorrect; the first dozen reasons are kept.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 12 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// genCeiling sends the flow ring, stamped exactly as in a run, into a bound
// loopback socket nobody reads, and returns the flows/s the generator alone
// sustains.
func genCeiling(w *wire, d time.Duration) (float64, error) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer sink.Close()
	conn, err := net.Dial("udp", sink.LocalAddr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	start := time.Now()
	var flows uint64
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= d {
			return float64(flows) / el.Seconds(), nil
		}
		dg := &w.flows[i%len(w.flows)]
		dg.stamp(uint32(el/time.Microsecond) + 1)
		if _, err := conn.Write(dg.b); err != nil {
			return 0, err
		}
		flows += uint64(dg.records)
	}
}

// live is one set-up system under test with the harness's two connections.
type live struct {
	s   *sut
	udp net.Conn
	tcp net.Conn
}

func (l *live) close() {
	if l.udp != nil {
		l.udp.Close()
	}
	if l.tcp != nil {
		l.tcp.Close()
	}
	l.s.destroy()
}

// setUp is exec → ready → warm-up DNS set streamed → every record applied
// (as /metrics reports it). The returned duration is setup_s.
func setUp(bin, root string, w *wire, extra []string) (*live, time.Duration, error) {
	start := time.Now()
	s, err := startSUT(bin, root, w.sp, extra)
	if err != nil {
		return nil, 0, err
	}
	l := &live{s: s}
	if l.udp, err = net.Dial("udp", s.flowAddr); err == nil {
		l.tcp, err = net.Dial("tcp", s.dnsAddr)
	}
	if err != nil {
		l.close()
		return nil, 0, err
	}
	// Stream the warm-up set in slices small enough that no fill-lane queue
	// can overflow, waiting for each to be applied before the next: setup
	// must never lose a record, whatever the fill workers' scheduling.
	workers := uint64(len(s.workers))
	var sent, want uint64
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < len(w.preload) || sent < want; {
		for ; i < len(w.preload) && want-sent < preloadSlice; i++ {
			if _, err := l.tcp.Write(w.preload[i].b); err != nil {
				l.close()
				return nil, 0, fmt.Errorf("flowbench: warm-up DNS write: %w", err)
			}
			want += uint64(w.preload[i].records) + (workers-1)*uint64(w.preload[i].cnames)
		}
		got, err := s.dnsApplied()
		if err == nil {
			sent = got
		}
		if time.Now().After(deadline) {
			l.close()
			return nil, 0, fmt.Errorf("flowbench: warm-up set never applied: %d of %d records (%v)", sent, want, err)
		}
		if sent < want {
			time.Sleep(time.Millisecond)
		}
	}
	return l, time.Since(start), nil
}

// protocol is one run's timing: the frozen values for measurements, short
// ones for the smoke test.
type protocol struct {
	warmup, window, ceiling time.Duration
	setups                  int
	// checkCeiling fails a run whose generator-only ceiling is under 1.5x
	// what the run delivered; the smoke test's ceiling is too short to trust.
	checkCeiling bool
}

func measured(window time.Duration) protocol {
	return protocol{warmup: warmupTime, window: window, ceiling: 300 * time.Millisecond, setups: setupRepeats, checkCeiling: true}
}

// rowWindow is the closed window: at most flowWindow flows sent but not yet
// seen as rows. A full window that sees no row for lossTimeout declares
// everything in flight lost and opens again.
type rowWindow struct {
	lost         uint64
	lastRows     uint64
	lastProgress time.Time
}

// admit reports whether one more datagram may be sent now.
func (g *rowWindow) admit(sent, seen uint64, now time.Time) bool {
	if seen != g.lastRows {
		g.lastRows, g.lastProgress = seen, now
	}
	if int64(sent)-int64(seen)-int64(g.lost) < flowWindow {
		return true
	}
	if now.Sub(g.lastProgress) > lossTimeout {
		g.lost, g.lastProgress = sent-seen, now
		return true
	}
	return false
}

// snapshot is the sender's view at a window boundary.
type snapshot struct {
	at        time.Duration // since run start
	rows      uint64
	flowsSent uint64
	dnsSent   uint64
	childCPU  float64
	selfCPU   float64
}

// runE2E measures one workload end to end against real flowdns processes.
func runE2E(bin, root string, w *wire, seed int64, pr protocol, extra []string) (*result, error) {
	sp := w.sp
	res := &result{Workload: sp.Name, Seed: seed, Correct: true}

	// The harness holds the whole wire and the oracle on its heap; a
	// collection of that during a set-up or the window would steal a core
	// from the two the SUT has. Collect now, then only on the safety limit.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(2 << 30))

	ceiling, err := genCeiling(w, pr.ceiling)
	if err != nil {
		return nil, err
	}
	res.GenCeiling = ceiling

	// Set up several times; the last instance carries the run. On every
	// return the processes are killed first, then the readers (which end at
	// their pipe's EOF) are waited for.
	var wg sync.WaitGroup
	defer wg.Wait()
	var l *live
	for i := 0; i < pr.setups; i++ {
		if l != nil {
			l.close()
		}
		var d time.Duration
		if l, d, err = setUp(bin, root, w, extra); err != nil {
			return nil, err
		}
		res.SetupAllS = append(res.SetupAllS, d.Seconds())
	}
	defer l.close()
	res.SetupS = median(res.SetupAllS)

	t0 := time.Now()
	var rows atomic.Uint64
	readers := make([]*rowReader, len(l.s.workers))
	for i, p := range l.s.workers {
		readers[i] = &rowReader{t0: t0, rows: &rows, ips: map[string]*ipStat{}}
		wg.Add(1)
		go func(r *rowReader, f *os.File) {
			defer wg.Done()
			r.run(f)
		}(readers[i], p.stdout)
	}

	childCPU := func() float64 {
		var sum float64
		for _, p := range l.s.procs {
			c, err := p.cpuSeconds()
			if err != nil {
				res.fail("%v", err)
			}
			sum += c
		}
		return sum
	}

	// ---- sender: warm-up, then the timed window --------------------------
	var (
		dgramsSent              int
		flowsSent, dnsSent      uint64
		cnamesSent              uint64
		dnsChunks               int
		gate                    = rowWindow{lastProgress: t0}
		nextFlowDue, nextDNSDue time.Duration
		late                    []float64 // ms, open-loop sends inside the window
		begin, end              snapshot
		marks                   []snapshot // window start, every sliceLength, window end
		inWindow                bool
	)
	take := func(at time.Duration) snapshot {
		return snapshot{at: at, rows: rows.Load(), flowsSent: flowsSent, dnsSent: dnsSent,
			childCPU: childCPU(), selfCPU: selfCPUSeconds()}
	}
	flowGap := func(records int) time.Duration {
		return time.Duration(float64(records) / sp.FlowRate * float64(time.Second))
	}
	dnsGap := func(records int) time.Duration {
		return time.Duration(float64(records) / sp.DNSRate * float64(time.Second))
	}
	// Socket guard: look at the SUT's socket queues at least every maxBurst
	// datagrams (half a buffer's worth) and send only while they are under a
	// quarter full, so the kernel cannot drop (see sockMon).
	var ports []int
	for _, p := range l.s.procs {
		ports = append(ports, p.flowPort)
	}
	mon, err := newSockMon(ports)
	if err != nil {
		return nil, err
	}
	defer mon.close()
	rcvbuf := rcvbufDefault()
	maxBurst := max(1, rcvbuf/2/skbTruesize(len(w.flows[0].b)))
	allowance := 0 // datagrams that may still be sent before the next look
	tStart, tEnd := pr.warmup, pr.warmup+pr.window
	for {
		now := time.Since(t0)
		if !inWindow && now >= tStart {
			begin, inWindow = take(now), true
			marks = append(marks, begin)
		}
		if now >= tEnd {
			end = take(now)
			marks = append(marks, end)
			break
		}
		if inWindow && now >= marks[len(marks)-1].at+sliceLength && tEnd-now > sliceLength/2 {
			marks = append(marks, take(now))
		}
		busy := false

		// DNS: open loop on its own clock, or coupled to flow progress.
		for {
			c := &w.dns[dnsChunks%len(w.dns)]
			if sp.DNSRate > 0 {
				if nextDNSDue > now {
					break
				}
				if inWindow {
					late = append(late, float64(now-nextDNSDue)/float64(time.Millisecond))
				}
				nextDNSDue += dnsGap(c.records)
			} else if float64(dnsSent) >= float64(flowsSent)*sp.DNSPerFlow {
				break
			}
			if _, err := l.tcp.Write(c.b); err != nil {
				return nil, fmt.Errorf("flowbench: DNS stream write: %w", err)
			}
			dnsChunks++
			dnsSent += uint64(c.records)
			cnamesSent += uint64(c.cnames)
			busy = true
			if sp.DNSRate > 0 {
				now = time.Since(t0)
			}
		}

		// Flows: open loop on the schedule, or closed on the row window;
		// either way only while the SUT's socket queues have room.
		for burst := 0; burst < 16; burst++ {
			d := &w.flows[dgramsSent%len(w.flows)]
			if sp.FlowRate > 0 {
				if nextFlowDue > now {
					break
				}
			} else if !gate.admit(flowsSent, rows.Load(), t0.Add(now)) {
				break
			}
			if allowance == 0 {
				depth, err := mon.maxRxQueue()
				if err != nil {
					return nil, err
				}
				if depth > rcvbuf/4 {
					break
				}
				allowance = maxBurst
			}
			allowance--
			stampAt := now
			if sp.FlowRate > 0 {
				// Timed from when the datagram was due, so a stall (the
				// generator's or the socket guard's) is charged to the rows.
				stampAt = nextFlowDue
				if inWindow {
					late = append(late, float64(now-nextFlowDue)/float64(time.Millisecond))
				}
				nextFlowDue += flowGap(d.records)
			}
			d.stamp(uint32(stampAt/time.Microsecond) + 1)
			if _, err := l.udp.Write(d.b); err != nil {
				return nil, fmt.Errorf("flowbench: flow datagram write: %w", err)
			}
			dgramsSent++
			flowsSent += uint64(d.records)
			busy = true
			now = time.Since(t0)
		}

		if !busy {
			time.Sleep(20 * time.Microsecond)
		}
	}

	// ---- drain: let in-flight rows arrive, then read the SUT's counters ---
	quiet := time.Now()
	for last := rows.Load(); rows.Load() < flowsSent && time.Since(quiet) < lossTimeout; {
		time.Sleep(time.Millisecond)
		if cur := rows.Load(); cur != last {
			last, quiet = cur, time.Now()
		}
	}
	lg := &res.Ledger
	lg.Sent, lg.DNSSent = flowsSent, dnsSent
	lg.DNSExpected = dnsSent + uint64(w.preloadRecords) +
		uint64(len(l.s.workers)-1)*(cnamesSent+uint64(w.preloadCNAMEs))
	if err := readCounters(l.s, mon, lg, &res.PeakRSSMB); err != nil {
		return nil, err
	}

	// ---- stop: router first, then workers; readers run to EOF -----------
	for _, p := range l.s.procs {
		if err := p.stop(); err != nil {
			res.fail("%s did not drain cleanly: %v\n%s", p.name, err, p.stderr.String())
		}
	}
	wg.Wait()

	// ---- account ---------------------------------------------------------
	res.WindowS = (end.at - begin.at).Seconds()
	windowRows := end.rows - begin.rows
	res.DNSPerS = float64(end.dnsSent-begin.dnsSent) / res.WindowS
	// Throughput and CPU cost are medians over the window's slices, so one
	// disturbed second (a neighbour's burst, a long GC) does not move them.
	var rates, costs []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		rates = append(rates, float64(b.rows-a.rows)/(b.at-a.at).Seconds())
		if b.rows > a.rows {
			costs = append(costs, (b.childCPU-a.childCPU)/(float64(b.rows-a.rows)/1e6))
		}
	}
	res.FlowsPerS = median(rates)
	res.FlowsPerSMean = float64(windowRows) / res.WindowS
	if len(costs) > 0 {
		res.CPUsPerMflow = median(costs)
	}
	res.HarnessCores = (end.selfCPU - begin.selfCPU) / res.WindowS

	var delays []float64
	ips := map[string]*ipStat{}
	for _, r := range readers {
		if r.err != nil {
			res.fail("reading output rows: %v", r.err)
		}
		if r.garbled > 0 {
			res.fail("%d malformed output rows", r.garbled)
		}
		lg.Rows += r.seen
		for _, s := range r.samples {
			if at := time.Duration(s.atUs) * time.Microsecond; at >= begin.at && at < end.at {
				delays = append(delays, float64(s.delayUs)/1000)
			}
		}
		for ip, st := range r.ips {
			if ips[ip] == nil {
				ips[ip] = st
				continue
			}
			ips[ip].rows += st.rows
			for n, c := range st.names {
				ips[ip].names[n] += c
			}
		}
	}
	sort.Float64s(delays)
	res.DelaySamples = len(delays)
	res.DelayP50Ms = percentile(delays, 50)
	res.DelayTailPct = highestSupported(len(delays))
	res.DelayTailMs = percentile(delays, res.DelayTailPct)
	sort.Float64s(late)
	res.GenLateP99Ms = percentile(late, 99)

	checkOracle(w, dgramsSent, ips, res)

	// Kernel drop counters are in datagrams; a dropped datagram carried
	// between one record and the format's maximum, so the kernel terms
	// explain a range of flows rather than a single number.
	maxPer := 0
	for i := range w.flows {
		maxPer = max(maxPer, w.flows[i].records)
	}
	const routerMaxPer = 32 // forward.DefaultFlowBatch
	afterRouter := int64(lg.Rows + lg.LookLost + lg.WriteLost + lg.RouterSpill)
	lg.Unexplained = outside(int64(lg.Sent)-afterRouter,
		int64(lg.KernelDrops+lg.WorkerDrops), int64(lg.KernelDrops)*int64(maxPer)+int64(lg.WorkerDrops)*routerMaxPer)
	if lg.Unexplained != 0 {
		res.fail("flow ledger does not close: sent %d, remainder %d (rows %d, kernel-dropped datagrams %d+%d, look %d, write %d, spill %d)",
			lg.Sent, lg.Unexplained, lg.Rows, lg.KernelDrops, lg.WorkerDrops, lg.LookLost, lg.WriteLost, lg.RouterSpill)
	}
	if l.s.router != nil {
		lg.RouterUnexplained = outside(int64(lg.RouterRouted)-afterRouter, int64(lg.WorkerDrops), int64(lg.WorkerDrops)*routerMaxPer)
		if lg.RouterUnexplained != 0 {
			res.fail("router ledger does not close: routed %d, remainder %d", lg.RouterRouted, lg.RouterUnexplained)
		}
	}
	lg.DNSUnexplained = int64(lg.DNSExpected) - int64(lg.DNSApplied+lg.DNSInvalid+lg.DNSFillLost+lg.DNSRouterLost)
	if lg.DNSUnexplained != 0 {
		res.fail("DNS ledger does not close: expected %d applied, remainder %d", lg.DNSExpected, lg.DNSUnexplained)
	}

	if lg.Rows <= lg.Sent {
		res.FlowsLost = lg.Sent - lg.Rows
	}
	dnsLost := lg.DNSFillLost + lg.DNSRouterLost
	res.Attempted = flowsSent + dnsSent
	res.Failed = res.FlowsLost + res.BadNames + dnsLost
	res.LossRatio = float64(res.Failed) / float64(res.Attempted)
	res.Delivered = 1 - res.LossRatio

	// Generator honesty: the generator alone must be well clear of what the
	// run delivered, or the run measured the harness.
	if pr.checkCeiling && res.GenCeiling < 1.5*res.FlowsPerS {
		res.fail("generator ceiling %.0f flows/s is below 1.5x the measured %.0f flows/s", res.GenCeiling, res.FlowsPerS)
	}
	if windowRows == 0 {
		res.fail("no rows delivered inside the timed window")
	}
	return res, nil
}

// readCounters scrapes every process once (after the window, never during
// it) and folds the loss terms into the ledger. DNS counters are polled
// until the fill queues have drained or two seconds pass.
func readCounters(s *sut, mon *sockMon, lg *ledger, peakRSS *float64) error {
	drops, err := mon.drops()
	if err != nil {
		return err
	}
	for i, p := range s.procs { // mon watches the procs' ports in this order
		d := drops[i]
		if s.router != nil && p != s.router {
			lg.WorkerDrops += d
		} else {
			lg.KernelDrops += d
		}
		mb, err := p.peakRSSMB()
		if err != nil {
			return err
		}
		*peakRSS += mb
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		lg.LookLost, lg.WriteLost = 0, 0
		lg.DNSApplied, lg.DNSInvalid, lg.DNSFillLost = 0, 0, 0
		for _, p := range s.workers {
			m, err := p.scrape()
			if err != nil {
				return fmt.Errorf("flowbench: scrape %s: %w", p.name, err)
			}
			lg.LookLost += metricSum(m, "flowdns_queue_dropped_total", `"look"`) + metricSum(m, "flowdns_queue_sampled_total", `"look"`)
			lg.WriteLost += metricSum(m, "flowdns_queue_dropped_total", `"write"`) + metricSum(m, "flowdns_queue_sampled_total", `"write"`)
			lg.DNSFillLost += metricSum(m, "flowdns_queue_dropped_total", `"fill"`) + metricSum(m, "flowdns_queue_sampled_total", `"fill"`)
			lg.DNSApplied += metricSum(m, "flowdns_dns_records_total", "")
			lg.DNSInvalid += metricSum(m, "flowdns_dns_invalid_total", "")
		}
		if s.router != nil {
			m, err := s.router.scrape()
			if err != nil {
				return fmt.Errorf("flowbench: scrape router: %w", err)
			}
			lg.RouterRouted = metricSum(m, "flowdns_forward_flows_total", "")
			lg.RouterSpill = metricSum(m, "flowdns_retry_dropped_total", "") + metricSum(m, "flowdns_retry_spill_depth", "")
			lg.DNSRouterLost = metricSum(m, "flowdns_forward_dns_dropped_total", "")
		}
		if lg.DNSApplied+lg.DNSInvalid+lg.DNSFillLost+lg.DNSRouterLost >= lg.DNSExpected || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkOracle compares the per-IP, per-name totals of the sampled source
// IPs with the reference model: every name must be admissible, and no IP
// may have more rows than flows sent (fewer is loss, counted by the ledger).
func checkOracle(w *wire, dgramsSent int, ips map[string]*ipStat, res *result) {
	sent := w.sentPerIP(dgramsSent)
	var named uint64
	for ip, st := range ips {
		res.SampledRows += uint64(st.rows)
		if st.rows > sent[ip] {
			res.fail("oracle: %d rows for source %s, only %d flows sent", st.rows, ip, sent[ip])
		}
		ok := w.oracle.admissible(ip)
		for name, n := range st.names {
			if name != "NULL" {
				named += uint64(n)
			}
			if !ok[name] {
				res.BadNames += uint64(n)
				res.fail("oracle: source %s resolved to %q (%d rows), admissible %v", ip, name, n, keys(ok))
			}
		}
	}
	if res.SampledRows > 0 {
		res.CorrelatedPct = 100 * float64(named) / float64(res.SampledRows)
	} else {
		res.fail("oracle: no sampled rows to check")
	}
}

// outside returns how far v lies outside [lo, hi]; 0 when inside.
func outside(v, lo, hi int64) int64 {
	switch {
	case v < lo:
		return v - lo
	case v > hi:
		return v - hi
	}
	return 0
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
