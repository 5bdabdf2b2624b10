package main

import "time"

// Frozen run protocol. Changing any of these is a benchmark change, not a
// tuning knob: the baseline must be measured again afterwards.
const (
	// universeSeed fixes the service population (names, chains, address
	// plan, popularity ranks); --seed drives only the traffic drawn over it,
	// so seed-to-seed spread is sampling noise, not a different ISP.
	universeSeed = 1
	// flowWindow is the closed-window bound: flows sent but not yet seen as
	// output rows.
	flowWindow = 6144
	// lossTimeout declares in-flight flows lost when a full window sees no
	// row for this long.
	lossTimeout = 2 * time.Second
	// warmupTime runs the sender untimed before every timed window.
	warmupTime = 2 * time.Second
	// setupRepeats is how many times exec→ready→preload-applied is run; the
	// median is setup_s and the last instance carries the timed window.
	setupRepeats = 5
	// preloadSlice bounds the warm-up records in flight; it is below one
	// fill lane's queue (65536/10), so the warm-up cannot overflow a lane.
	preloadSlice = 4096
	// sliceLength cuts the timed window into the slices whose median gives
	// flows_per_s and cpu_s_per_mflow.
	sliceLength = time.Second
	// stampEvery is the reader's delay-sampling stride in rows.
	stampEvery = 32
	// oracleShare: 1/oracleShare of source IPs (by text hash) get per-name
	// totals checked against the reference model.
	oracleShare = 16
)

// spec is one named workload with its frozen parameters.
type spec struct {
	Name string
	Why  string

	Proto     string // "v5" or "v9ipfix"
	PerDgram  int    // v5 records per datagram; v9ipfix alternates 1,2
	SourceIDs int    // v9ipfix exporters (half v9, half IPFIX)
	TemplEach int    // v9ipfix: template re-announced every N datagrams per exporter

	Cluster bool // router + 2 workers instead of one process

	FlowRate   float64 // flows/s, open loop; 0 = closed window of flowWindow
	DNSRate    float64 // DNS records/s, open loop; 0 = coupled to flows
	DNSPerFlow float64 // coupled mode: DNS records per flow

	Services      int     // universe size
	Churn         float64 // edge-IP rotation probability per query event
	RingFlows     int     // flow records per ring pass
	RingDNS       int     // DNS records per ring pass (open-loop DNS only; coupled rings follow RingFlows)
	PreloadEvents int     // DNS query events in the warm-up set
	SnapshotEvery string  // non-empty: checkpoint to the run's scratch at this cadence
}

// paperDNSPerFlow is the paper's large-ISP ratio: ~75K DNS rec/s beside ~1M
// flow rec/s.
const paperDNSPerFlow = 1.0 / 13

// pacedFlowRate is v5_paced's frozen offered load: ≈50 % of the seed
// commit's v5_bulk flows_per_s on the reference sandbox (see README.md).
const pacedFlowRate = 700_000

// stormDNSRate is dns_storm's frozen DNS offered load. The issue asks for
// 150K rec/s (2× the paper); see README.md for the value the two-core
// sandbox sustains without fill-queue loss.
const stormDNSRate = 400_000

// stormFlowRate is dns_storm's frozen flow load: light, so the DNS side is
// the larger share of the CPU the run spends.
const stormFlowRate = 300_000

var workloads = []spec{
	{
		Name:  "v5_bulk",
		Why:   "closed window, NetFlow v5 at 30 rec/datagram + DNS at 1:13: socket cost amortised 30x, so decode, lookup/cmap reads and TSV formatting set the headline flows_per_s",
		Proto: "v5", PerDgram: 30, DNSPerFlow: paperDNSPerFlow,
		Services: 4000, Churn: 0.25, RingFlows: 4096 * 30, PreloadEvents: 20000,
	},
	{
		Name:  "v9_sparse",
		Why:   "closed window, v9+IPFIX at 1-2 rec/datagram from 32 exporters with template churn: socket reads, template lookups and queue offers dominate, lookup/sink do little",
		Proto: "v9ipfix", SourceIDs: 32, TemplEach: 64, DNSPerFlow: paperDNSPerFlow / 4,
		Services: 4000, Churn: 0.25, RingFlows: 96 * 1024, PreloadEvents: 20000,
	},
	{
		Name:  "dns_storm",
		Why:   "DNS open loop at 400K rec/s over a 200K-service universe, heavy churn, 5 s checkpoints, light paced flows beside it: dnswire decode, fill, cmap writes and snapshot scans are the largest CPU share",
		Proto: "v5", PerDgram: 30, DNSRate: stormDNSRate, FlowRate: stormFlowRate,
		Services: 200_000, Churn: 0.5, RingFlows: 2048 * 30, RingDNS: 300_000, PreloadEvents: 20000,
		SnapshotEvery: "5s",
	},
	{
		Name:  "v5_paced",
		Why:   "v5_bulk's input, open loop at ~50% of saturation: throughput cannot move, so write delay and CPU per flow at fixed load (queue wait, batching, idle wake-ups) are read here",
		Proto: "v5", PerDgram: 30, FlowRate: pacedFlowRate, DNSPerFlow: paperDNSPerFlow,
		Services: 4000, Churn: 0.25, RingFlows: 4096 * 30, PreloadEvents: 20000,
	},
	{
		Name:  "cluster_3p",
		Why:   "v5_bulk's input through a router and two worker processes: forward re-encode, the extra UDP/TCP hop and worker re-decode dominate; single-process changes should leave it flat",
		Proto: "v5", PerDgram: 30, DNSPerFlow: paperDNSPerFlow, Cluster: true,
		Services: 4000, Churn: 0.25, RingFlows: 4096 * 30, PreloadEvents: 20000,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}
