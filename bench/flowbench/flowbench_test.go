package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netflow"
)

// smallSpec shrinks a workload so wire generation takes milliseconds.
func smallSpec(name string) spec {
	sp, _ := findWorkload(name)
	sp.Services = min(sp.Services, 2000)
	sp.RingFlows = 6000
	sp.RingDNS = min(sp.RingDNS, 20000)
	sp.PreloadEvents = 2000
	return sp
}

func wireBytes(w *wire) []byte {
	var b bytes.Buffer
	for _, part := range [][]chunk{w.preload, w.dns} {
		for i := range part {
			b.Write(part[i].b)
		}
	}
	for i := range w.flows {
		b.Write(w.flows[i].b)
	}
	return b.Bytes()
}

func TestSameSeedSameWire(t *testing.T) {
	for _, sp := range workloads {
		sp := smallSpec(sp.Name)
		a, err := buildWire(sp, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWire(sp, 7, false)
		c, _ := buildWire(sp, 8, false)
		if !bytes.Equal(wireBytes(a), wireBytes(b)) {
			t.Errorf("%s: same seed produced different wire bytes", sp.Name)
		}
		if bytes.Equal(wireBytes(a), wireBytes(c)) {
			t.Errorf("%s: different seeds produced identical wire bytes", sp.Name)
		}
	}
}

// Every generated datagram must decode to its declared record count, with
// the stamp landing in every record's packet counter — including the
// template-less v9/IPFIX datagrams flowbench cuts by hand.
func TestStampLandsInPacketCounter(t *testing.T) {
	for _, name := range []string{"v5_bulk", "v9_sparse"} {
		w, err := buildWire(smallSpec(name), 3, false)
		if err != nil {
			t.Fatal(err)
		}
		ingest := &countIngest{}
		var got []netflow.FlowRecord
		src := newDecodeOnlySource()
		for i := range w.flows {
			d := &w.flows[i]
			d.stamp(uint32(i) + 1)
			recs := src.decode(t, d.b)
			if len(recs) != d.records {
				t.Fatalf("%s datagram %d: decoded %d records, generated %d", name, i, len(recs), d.records)
			}
			for _, r := range recs {
				if r.Packets != uint64(i)+1 {
					t.Fatalf("%s datagram %d: packets %d, want stamp %d", name, i, r.Packets, i+1)
				}
			}
			got = append(got, recs...)
		}
		ingest.OfferFlowBatch(got)
		if int(ingest.flows.Load()) != w.flowRecords {
			t.Errorf("%s: %d records decoded, %d generated", name, ingest.flows.Load(), w.flowRecords)
		}
	}
}

// The stamp must survive into a real TSV sink row and come back out of the
// reader as a delay sample; the oracle-sampled source IP must be tallied.
func TestStampRoundTripsThroughTSVRow(t *testing.T) {
	w, err := buildWire(smallSpec("v5_bulk"), 5, false)
	if err != nil {
		t.Fatal(err)
	}
	var d *dgram
	for i := range w.flows {
		if len(w.flows[i].sampled) > 0 {
			d = &w.flows[i]
			break
		}
	}
	if d == nil {
		t.Fatal("no datagram with an oracle-sampled source IP")
	}
	const sentUs, seenUs = 1_000_000, 1_004_500
	d.stamp(sentUs + 1)
	flows, err := netflow.AppendV5Flows(d.b, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sink := core.NewTSVSink(&out)
	batch := make([]core.CorrelatedFlow, len(flows))
	for i := range flows {
		batch[i] = core.CorrelatedFlow{Flow: flows[i], Name: "svc.example"}
	}
	if err := sink.WriteBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	sink.Flush()
	r := &rowReader{ips: map[string]*ipStat{}}
	for _, line := range bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n")) {
		r.seen = stampEvery - 1 // make every row a stamp sample
		r.line(line, seenUs)
	}
	if len(r.samples) != len(flows) || r.garbled != 0 {
		t.Fatalf("%d delay samples, %d garbled from %d rows", len(r.samples), r.garbled, len(flows))
	}
	if got := r.samples[0].delayUs; got != seenUs-sentUs {
		t.Errorf("delay %dus, want %dus", got, seenUs-sentUs)
	}
	st := r.ips[d.sampled[0]]
	if st == nil || st.names["svc.example"] == 0 {
		t.Errorf("sampled source %s not tallied: %+v", d.sampled[0], r.ips)
	}
}

func TestPercentileAndSampleRule(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	for p, want := range map[float64]float64{0: 0, 50: 50, 99: 99, 100: 100, 12.5: 12.5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must give 0")
	}
	// Ten samples must lie beyond the reported tail percentile.
	for n, want := range map[int]float64{5: 50, 39: 50, 40: 75, 100: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "decode", Start: 10, End: 30, Parent: 0},
		{Name: "lookup", Start: 30, End: 90, Parent: 0},
		{Name: "cmap", Start: 40, End: 60, Parent: 2},
		{Name: "batch", Start: 100, End: 150, Parent: -1},
		{Name: "decode", Start: 100, End: 140, Parent: 4},
	}
	lt := selfTimes(spans)
	want := map[string]layerTime{
		"batch":  {Busy: 150, Self: 30, Calls: 2}, // 100-20-60 + 50-40
		"decode": {Busy: 60, Self: 60, Calls: 2},
		"lookup": {Busy: 60, Self: 40, Calls: 1},
		"cmap":   {Busy: 20, Self: 20, Calls: 1},
	}
	for name, w := range want {
		if lt[name] != w {
			t.Errorf("%s: %+v, want %+v", name, lt[name], w)
		}
	}
}

func TestRowWindowAccounting(t *testing.T) {
	t0 := time.Unix(0, 0)
	g := rowWindow{lastProgress: t0}
	if !g.admit(flowWindow-1, 0, t0) {
		t.Error("window with room refused a send")
	}
	if g.admit(flowWindow, 0, t0.Add(time.Second)) {
		t.Error("full window admitted a send before the loss timeout")
	}
	// Rows arriving reopen the window and reset the timeout clock.
	if !g.admit(flowWindow, 30, t0.Add(1500*time.Millisecond)) {
		t.Error("progress did not reopen the window")
	}
	if g.admit(flowWindow+30, 30, t0.Add(3*time.Second)) {
		t.Error("timeout must count from the last progress, not the start")
	}
	// No row for lossTimeout: everything in flight is declared lost, once.
	late := t0.Add(1500*time.Millisecond + lossTimeout + time.Millisecond)
	if !g.admit(flowWindow+30, 30, late) || g.lost != flowWindow {
		t.Errorf("after the timeout: lost = %d, want %d", g.lost, flowWindow)
	}
	if !g.admit(flowWindow+60, 30, late) {
		t.Error("declared-lost flows must not keep the window shut")
	}
	// Late rows for flows already declared lost must not wedge the gate.
	if !g.admit(flowWindow+60, flowWindow+60, late) {
		t.Error("rows overtaking the lost count wedged the window")
	}
}

func TestLedgerRange(t *testing.T) {
	for _, c := range []struct{ v, lo, hi, want int64 }{
		{0, 0, 0, 0}, {30, 1, 30, 0}, {31, 1, 30, 1}, {0, 1, 30, -1}, {-5, 0, 0, -5},
	} {
		if got := outside(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("outside(%d,[%d,%d]) = %d, want %d", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

// TestSmoke runs every workload — the three-process cluster included — end
// to end against real flowdns processes with one-second windows, and one
// traced pass, so the harness itself is exercised wherever the tests run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test execs flowdns processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildFlowdns(root)
	if err != nil {
		t.Fatal(err)
	}
	pr := protocol{warmup: 200 * time.Millisecond, window: time.Second, ceiling: 50 * time.Millisecond, setups: 1}
	for _, full := range workloads {
		sp := smallSpec(full.Name)
		sp.RingFlows = 30000
		w, err := buildWire(sp, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runE2E(bin, root, w, 1, pr, nil)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.FlowsPerS <= 0 || res.DelaySamples == 0 {
			t.Errorf("%s: correct=%v failed=%d flows/s=%.0f delay samples=%d problems=%v ledger=%+v",
				sp.Name, res.Correct, res.Failed, res.FlowsPerS, res.DelaySamples, res.Problems, res.Ledger)
		}
		for name, m := range endToEndMetrics(res) {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, must be positive", sp.Name, name, m.Value)
			}
		}
	}
}

// BENCHMARK.json is the contract the driver checks; its workloads and metric
// names and units must be exactly what the code prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Why, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q, code has %q (or the reasons differ)", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, declared []entry, printed map[string]metric) {
		t.Helper()
		if len(declared) != len(printed) {
			t.Errorf("%s: %d metrics declared, %d printed", kind, len(declared), len(printed))
		}
		for _, d := range declared {
			if m, ok := printed[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s [%s] declared, code prints %+v (present=%v)", kind, d.Name, d.Unit, m, ok)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndMetrics(&result{}))
	layer, _, _ := (&traceData{ref: &result{}, pp: &pipeCounts{}}).metrics()
	same("per_layer", doc.PerLayer, layer)
}
