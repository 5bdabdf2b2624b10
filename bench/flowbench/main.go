// Command flowbench is the repository's benchmark: it builds cmd/flowdns,
// generates a workload's wire bytes from a seed, drives real flowdns
// processes over loopback, checks their output rows against a reference
// model and a record ledger, and prints every metric by name and unit.
//
//	flowbench --workload v5_bulk --seed 1 --seconds 12 --trace 0   end-to-end metrics
//	flowbench --workload v5_bulk --seed 1 --seconds 12 --trace 1   per-layer metrics
//	flowbench --workload all --seed 1                              every workload, then a summary
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is
// diagnostics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEndMetrics(r *result) map[string]metric {
	return map[string]metric{
		"flows_per_s":        {r.FlowsPerS, "1/s"},
		"cpu_s_per_mflow":    {r.CPUsPerMflow, "s"},
		"peak_rss_mb":        {r.PeakRSSMB, "MB"},
		"write_delay_p50_ms": {r.DelayP50Ms, "ms"},
		"delivered_ratio":    {r.Delivered, "ratio"},
		"setup_s":            {r.SetupS, "s"},
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload name, or 'all'")
		seed         = flag.Int64("seed", 1, "traffic seed: the same seed gives byte-identical wire input")
		seconds      = flag.Int("seconds", 12, "timed window in seconds")
		trace        = flag.Int("trace", 0, "0 = end-to-end metrics from untraced child processes, 1 = per-layer metrics from the traced in-process pipeline")
		sutFlags     = flag.String("sut-flags", "", "extra flags appended to every correlating flowdns process (experiments, e.g. '-ingest-batch 1')")
	)
	flag.Parse()
	if *seconds < 1 {
		fatal(fmt.Errorf("flowbench: --seconds %d, want at least 1", *seconds))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	bin, err := buildFlowdns(root)
	if err != nil {
		fatal(err)
	}
	extra := strings.Fields(*sutFlags)
	window := time.Duration(*seconds) * time.Second

	if *workloadName != "all" {
		sp, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("flowbench: unknown workload %q", *workloadName))
		}
		rep, err := runOne(bin, root, sp, *seed, window, *trace == 1, extra)
		if err != nil {
			fatal(err)
		}
		printJSON(rep)
		return
	}

	// Every workload in turn, then one summary object. The summary claims
	// nothing: it is the yardstick later changes cite.
	summary := map[string]any{}
	for _, sp := range workloads {
		rep, err := runOne(bin, root, sp, *seed, window, *trace == 1, extra)
		if err != nil {
			fatal(err)
		}
		summary[sp.Name] = rep
	}
	out, err := json.Marshal(summary)
	if err != nil {
		fatal(err)
	}
	// "claim" is written last by hand: encoding/json sorts map keys.
	fmt.Printf("%s,\"claim\":null}\n", out[:len(out)-1])
}

func runOne(bin, root string, sp spec, seed int64, window time.Duration, traced bool, extra []string) (*report, error) {
	w, err := buildWire(sp, seed, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTrace(bin, root, w, seed, window, extra)
	}
	res, err := runE2E(bin, root, w, seed, measured(window), extra)
	if err != nil {
		return nil, err
	}
	printJSON(map[string]any{"diagnostics": res})
	return &report{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: endToEndMetrics(res)}, nil
}

func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
