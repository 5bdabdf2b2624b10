// Command flowdns is the deployable FlowDNS correlator daemon.
//
// It listens for DNS response streams on TCP (length-prefixed DNS messages,
// RFC 1035 §4.2.2 framing — the transport the paper's ISP resolvers use to
// reach the collectors) and for NetFlow v5/v9/IPFIX exports on UDP,
// correlates them in real time, and writes batched correlated flows to the
// configured sink (TSV or JSONL, file or stdout).
//
// Example, mirroring the paper's large-ISP topology (2 DNS streams, many
// NetFlow streams, all fanned into one correlator):
//
//	flowdns -dns-listen :5353 -netflow-listen :2055 -out correlated.tsv
//
// SIGINT/SIGTERM cancels the run context; the pipeline stops intake,
// drains every stage through the sink, and exits. Stats are logged once
// per -stats-interval: correlation rate, loss on every stage queue, store
// sizes, write delay.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dbl"
	"repro/internal/fault"
	"repro/internal/forward"
	"repro/internal/influxsink"
	"repro/internal/metrics"
	"repro/internal/queryapi"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/winstore"
)

func main() {
	c := bindFlags(flag.CommandLine)
	flag.Parse()
	if c.exampleConfig {
		data, err := json.MarshalIndent(config.Example(), "", "  ")
		if err != nil {
			log.Fatalf("flowdns: %v", err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	}
	file, err := c.resolve()
	if err != nil {
		log.Fatalf("flowdns: %v", err)
	}
	cfg, err := file.CoreConfig()
	if err != nil {
		log.Fatalf("flowdns: %v", err)
	}

	// Arm failpoints before any sink or source is constructed, so the very
	// first I/O can hit them: the environment first, then the configured
	// map, then the -faults flag (later arming of the same point wins).
	if err := fault.FromEnv(); err != nil {
		log.Fatalf("flowdns: %s: %v", fault.Env, err)
	}
	for name, spec := range file.Faults {
		if err := fault.Enable(name, spec); err != nil {
			log.Fatalf("flowdns: config faults: %v", err)
		}
	}
	if err := fault.EnableSpecs(c.faults); err != nil {
		log.Fatalf("flowdns: -faults: %v", err)
	}
	if armed := armedFaults(); len(armed) > 0 {
		log.Printf("flowdns: WARNING: %d failpoint(s) armed: %s", len(armed), strings.Join(armed, ", "))
	}

	sources, err := listen(file)
	if err != nil {
		log.Fatalf("flowdns: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The router role is a different program shape: no correlator, no store,
	// no sink — just the fan-out stage plus its admin plane.
	if file.Cluster.Role == "router" {
		runRouter(ctx, file, cfg.Key, sources)
		return
	}

	outputs := file.AllOutputs()
	sink, closeFiles, extraMetrics, err := buildSink(outputs)
	if err != nil {
		log.Fatalf("flowdns: %v", err)
	}
	defer closeFiles()

	// The drain flag and the stats feed are late-bound: the HTTP handlers
	// close over the correlator pointer assigned further down, before Run.
	var corr *core.Correlator
	draining := func() bool { return corr != nil && corr.Draining() }
	pipelineStats := func() core.Stats {
		if corr == nil {
			return core.Stats{}
		}
		return corr.Stats()
	}
	var services []core.Service

	// The window store persists sealed rollup windows; its maintenance loop
	// (compaction + retention) runs as a service under the pipeline
	// lifecycle.
	var store *winstore.Store
	if file.Query.StoreDir != "" {
		store, err = winstore.Open(winstore.Config{
			Dir:          file.Query.StoreDir,
			PartDur:      seconds(file.Query.PartSeconds),
			Retention:    seconds(file.Query.RetentionSeconds),
			CompactAfter: seconds(file.Query.CompactAfterSeconds),
		})
		if err != nil {
			log.Fatalf("flowdns: %v", err)
		}
		services = append(services, store)
		st := store.Stats()
		log.Printf("flowdns: window store at %s (%d partitions, %d windows on disk)",
			store.Dir(), st.Partitions, st.Windows)
		if st.LoadErrors > 0 {
			log.Printf("flowdns: WARNING: %d partition(s) recovered from damaged segments (validated prefixes kept)", st.LoadErrors)
		}
	}

	// Stack the attribution rollup sink on top of the configured outputs;
	// the engine handle stays local for the /rollups snapshot endpoint, and
	// sealed windows fan into the store.
	var engine *rollup.Rollup
	var reload func() error
	if file.Rollup.Enabled {
		var onSeal func([]rollup.Window)
		if store != nil {
			onSeal = func(ws []rollup.Window) {
				if err := store.Add(ws); err != nil {
					// Failed writes stay dirty in the store and retry on the
					// next Add or the final Close; log, don't crash the seal.
					log.Printf("flowdns: window store: %v", err)
				}
			}
		}
		var closeRollup func()
		engine, sink, closeRollup, reload, err = buildRollup(file.Rollup, sink, outputs, onSeal)
		if err != nil {
			log.Fatalf("flowdns: %v", err)
		}
		defer closeRollup()
	}

	// Hot reload of the attribution tables: SIGHUP and POST /admin/reload
	// share the same swap path, so either trigger refreshes the BGP table
	// and blocklist without restarting (or even pausing) the pipeline.
	if reload != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := reload(); err != nil {
					log.Printf("flowdns: SIGHUP reload failed (tables unchanged): %v", err)
				}
			}
		}()
		log.Printf("flowdns: attribution tables hot-reloadable (SIGHUP or POST /admin/reload)")
	}

	// Query plane: /query/*, /metrics, and /rollups share one mux. It is
	// served on the query address as a lifecycle service (graceful drain),
	// and on the legacy -rollup-http address for /rollups compatibility.
	queryAddr := file.Query.Listen
	var qsrv *queryapi.Server
	if queryAddr != "" {
		qopts := []queryapi.Option{
			queryapi.WithAddr(queryAddr),
			queryapi.WithRollups(engine),
			queryapi.WithDraining(draining),
			queryapi.WithPipelineStats(pipelineStats),
			queryapi.WithCache(file.Query.CacheEntries),
		}
		if reload != nil {
			qopts = append(qopts, queryapi.WithReload(reload))
		}
		if file.FaultAdmin {
			qopts = append(qopts, queryapi.WithFaultAdmin())
			log.Printf("flowdns: fault admin on http://%s/admin/fault (chaos testing)", queryAddr)
		}
		if file.Cluster.Role == "worker" {
			// The handoff surface is late-bound like the drain flag: the
			// handlers close over the correlator pointer assigned below,
			// before Run starts the HTTP service.
			var handoffOnce sync.Once
			var handoff *forward.Handoff
			lazy := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if corr == nil {
					http.Error(w, "correlator not ready", http.StatusServiceUnavailable)
					return
				}
				handoffOnce.Do(func() { handoff = forward.NewHandoff(corr) })
				handoff.Handler().ServeHTTP(w, req)
			})
			qopts = append(qopts,
				queryapi.WithAdminHandler("/admin/handoff", lazy),
				queryapi.WithAdminHandler("/admin/handoff/", lazy),
				queryapi.WithClusterInfo(func() queryapi.ClusterInfo {
					return queryapi.ClusterInfo{Role: "worker", Node: file.Cluster.Node, VNodes: file.Cluster.VNodes}
				}),
			)
			log.Printf("flowdns: worker %q: shard handoff on http://%s/admin/handoff", file.Cluster.Node, queryAddr)
		}
		for _, fn := range extraMetrics {
			qopts = append(qopts, queryapi.WithExtraMetrics(fn))
		}
		qsrv, err = queryapi.New(store, qopts...)
		if err != nil {
			log.Fatalf("flowdns: %v", err)
		}
		services = append(services, qsrv)
		log.Printf("flowdns: query plane on http://%s/query/ (step/top time-range queries, /metrics, /rollups)", queryAddr)
	}
	if file.Rollup.HTTP != "" && file.Rollup.HTTP != queryAddr {
		var h http.Handler
		if qsrv != nil {
			h = qsrv.Handler()
		} else {
			mux := http.NewServeMux()
			mux.Handle("/rollups", rollup.SnapshotHandler(engine, draining))
			h = mux
		}
		ln, err := net.Listen("tcp", file.Rollup.HTTP)
		if err != nil {
			log.Fatalf("flowdns: rollup http listen %s: %v", file.Rollup.HTTP, err)
		}
		log.Printf("flowdns: rollup snapshots on http://%s/rollups", ln.Addr())
		go func() {
			if err := http.Serve(ln, h); err != nil {
				log.Printf("flowdns: rollup http: %v", err)
			}
		}()
	}

	corr = core.New(cfg,
		core.WithSink(sink),
		core.WithSources(sources...),
		core.WithMetrics(c.statsInterval, logStats),
		core.WithServices(services...),
	)
	if cfg.SnapshotPath != "" {
		rst, rerr := corr.RestoreResult()
		switch {
		case rerr != nil:
			// Partial restores keep every validated section; the daemon runs
			// on what was applied rather than refusing to start.
			log.Printf("flowdns: snapshot restore: %v (kept %d entries from %d sections)", rerr, rst.Entries, rst.Sections)
		case rst.Sections > 0:
			log.Printf("flowdns: restored %d entries from %s (%d expired dropped, snapshot age %v)",
				rst.Entries, cfg.SnapshotPath, rst.Expired,
				time.Since(time.Unix(0, rst.Created)).Round(time.Second))
		default:
			log.Printf("flowdns: no snapshot at %s, cold start", cfg.SnapshotPath)
		}
		log.Printf("flowdns: checkpointing to %s every %v", cfg.SnapshotPath, corr.Config().SnapshotEvery)
	}
	log.Printf("flowdns: running (variant=%s, lanes=%d, sink=%s, rollup=%v)",
		cmp.Or(file.Correlator.Variant, "Main"), corr.Lanes(), cmp.Or(file.Output.Sink, "tsv"), engine != nil)
	if err := corr.Run(ctx); err != nil {
		log.Fatalf("flowdns: %v", err)
	}
	log.Printf("flowdns: drained cleanly")
}

// cli is the parsed command line. Every settings flag binds straight onto
// a config.File field, so flags are a view onto the configuration file —
// same fields, same Validate — and only the process-level switches that
// have no JSON key live beside it.
type cli struct {
	file config.File

	configPath    string
	exampleConfig bool
	statsInterval time.Duration
	faults        string

	// -retry-sink/-retry-spill describe the output's optional retry block,
	// which is a pointer in the File; resolve attaches it.
	retrySink bool
	retry     config.RetryConfig
}

// bindFlags registers the daemon's flags on fs. Each default is either
// stored in the File (and so shown by -h) or, for the whole-second and
// millisecond fields whose 0 already means "the default", only shown.
func bindFlags(fs *flag.FlagSet) *cli {
	c := &cli{}
	f := &c.file
	fs.StringVar(&c.configPath, "config", "", "JSON configuration file (overrides the flags below; see -example-config)")
	fs.BoolVar(&c.exampleConfig, "example-config", false, "print an example configuration file and exit")
	fs.DurationVar(&c.statsInterval, "stats-interval", 30*time.Second, "stats reporting interval")
	fs.StringVar(&c.faults, "faults", "", "arm failpoints at boot: name=spec[;name=spec...], same grammar as the FLOWDNS_FAULTS env var (chaos testing)")

	f.DNSStreams = []config.StreamConfig{{Listen: ":5353"}}
	f.FlowStreams = []config.StreamConfig{{Listen: ":2055"}}
	fs.Var(listenFlag{&f.DNSStreams}, "dns-listen", "comma-separated TCP listen addresses for DNS streams")
	fs.Var(listenFlag{&f.FlowStreams}, "netflow-listen", "comma-separated UDP listen addresses for NetFlow/IPFIX streams")

	o := &f.Output
	fs.StringVar(&o.Path, "out", "-", "output file for correlated flows ('-' = stdout)")
	fs.StringVar(&o.Sink, "sink", "tsv", "output sink: "+strings.Join(core.SinkNames(), ", "))
	fs.StringVar(&o.URL, "sink-url", "", "HTTP endpoint for -sink influx (e.g. http://influx:8086/write?db=flowdns; '' = write line protocol to -out)")
	fs.StringVar(&o.Measurement, "measurement", "", "Influx measurement name for -sink influx ('' = flowdns)")
	fs.BoolVar(&o.SkipMisses, "skip-misses", false, "do not write rows for uncorrelated flows")
	fs.BoolVar(&c.retrySink, "retry-sink", false, "wrap the output sink in a retry/spill wrapper: timeout-bounded attempts, doubling backoff, bounded buffering across sink outages")
	fs.StringVar(&c.retry.SpillPath, "retry-spill", "", "on-disk spill file for -retry-sink, replayed after recovery or restart ('' = memory-only)")

	cc := &f.Correlator
	fs.StringVar(&cc.Variant, "variant", "Main", "benchmark variant: Main, NoSplit, NoClearUp, NoRotation, NoLong, ExactTTL")
	fs.IntVar(&cc.Lanes, "lanes", 0, "lanes, one worker each that fills, looks up and writes to the sink (DNS partitioned by answer IP, flows by lookup IP; 0 = one lane per split)")
	fs.IntVar(&cc.IngestBatch, "ingest-batch", 0, "UDP datagrams drained per batched socket read (recvmmsg ring size; 0 = default 32, 1 = single-read loop)")
	fs.StringVar(&cc.SnapshotPath, "snapshot", "", "warm-restart checkpoint file: restore on boot, checkpoint periodically and on shutdown ('' = disabled)")
	fs.Var(unitFlag{&cc.SnapshotEverySeconds, time.Second, core.DefaultSnapshotInterval}, "snapshot-every", "checkpoint cadence when -snapshot is set")
	fs.Float64Var(&cc.SampleMaxShed, "sample-max-shed", 0, "adaptive sampler shed ceiling in (0,1]: fraction of offered records deliberately shed (and counted) at full buffers (0 = disabled)")
	fs.Float64Var(&cc.SampleLowWater, "sample-low-water", 0, "buffer fill below which the sampler sheds nothing (0 = default 0.5; requires -sample-max-shed)")
	fs.Float64Var(&cc.SampleHighWater, "sample-high-water", 0, "buffer fill at which the shed rate reaches -sample-max-shed (0 = default 0.9; requires -sample-max-shed)")
	fs.Var(unitFlag{&cc.DNSIdleTimeoutSeconds, time.Second, 0}, "dns-idle-timeout", "close a DNS TCP stream that goes silent for this long (0 = keep wedged streams open)")

	r := &f.Rollup
	fs.BoolVar(&r.Enabled, "rollup", false, "enable online attribution rollups (service × origin-AS × DBL category)")
	fs.Var(unitFlag{&r.WindowSeconds, time.Second, rollup.DefaultWindow}, "window", "rollup window rotation interval (whole seconds)")
	fs.StringVar(&r.Path, "rollup-out", "rollups.tsv", "sealed rollup window export file ('-' = stdout, '' = none)")
	fs.StringVar(&r.Format, "rollup-format", "tsv", "rollup export format: tsv, json")
	fs.StringVar(&r.HTTP, "rollup-http", "", "listen address for the /rollups live snapshot endpoint ('' = disabled)")
	fs.StringVar(&r.BGPTable, "bgp-table", "", "prefix→origin-ASN file for rollup AS attribution")
	fs.StringVar(&r.Blocklist, "dbl", "", "domain blocklist file for rollup DBL-category attribution")

	fs.BoolVar(&f.FaultAdmin, "fault-admin", false, "mount /admin/fault on the query server: GET failpoint catalog, POST arm/disarm (chaos testing)")

	q := &f.Query
	fs.StringVar(&q.Listen, "query-addr", "", "query-plane HTTP listen address serving /query/*, /metrics, /rollups ('' = disabled; requires -store-dir unless -role is set)")
	fs.StringVar(&q.StoreDir, "store-dir", "", "window-store partition directory persisting sealed rollup windows ('' = disabled; requires -rollup)")
	fs.Var(unitFlag{&q.RetentionSeconds, time.Second, 0}, "retention", "delete stored partitions older than this (0 = keep everything)")
	fs.Var(unitFlag{&q.CompactAfterSeconds, time.Second, 0}, "compact-after", "compact a partition this long after its interval ends (0 = default 10m, negative = never)")

	cl := &f.Cluster
	fs.StringVar(&cl.Role, "role", "", "cluster role: '' standalone, 'router' (consistent-hash fan-out to -forward-to nodes, no local store), 'worker' (correlator also serving /admin/handoff)")
	fs.Var(nodesFlag{&cl.Nodes}, "forward-to", "router fan-out ring: name=flowAddr/dnsAddr[,name=...] (requires -role router)")
	fs.StringVar(&cl.Node, "node", "", "this process's ring name, for handoff placement and cluster health (requires -role)")
	fs.IntVar(&cl.VNodes, "vnodes", 0, "virtual nodes per ring member (0 = default 64); must match across the cluster")
	return c
}

// resolve returns the validated configuration the daemon runs from: the
// -config file when one is given (it overrides the settings flags),
// otherwise the File the flags were bound onto.
func (c *cli) resolve() (*config.File, error) {
	if c.configPath != "" {
		file, err := config.Load(c.configPath)
		if err != nil {
			return nil, err
		}
		// As in v1, a config file that names no output path falls back to
		// the -out flag rather than silently switching to stdout.
		if file.Output.Path == "" && file.Output.NeedsWriter() {
			file.Output.Path = c.file.Output.Path
		}
		return file, nil
	}
	if c.retrySink {
		c.file.Output.Retry = &c.retry
	} else if c.retry.SpillPath != "" {
		return nil, errors.New("-retry-spill set without -retry-sink")
	}
	return &c.file, c.file.Validate()
}

// unitFlag presents an integer config field counted in unit (seconds or
// milliseconds) as a duration flag. A fractional request rounds away from
// zero rather than truncating toward 0, which in these fields means "use
// the default"; def is that default, shown by -h while the field stays 0.
type unitFlag struct {
	n    *int
	unit time.Duration
	def  time.Duration
}

func (u unitFlag) String() string {
	if u.n == nil || *u.n == 0 {
		return u.def.String()
	}
	return (time.Duration(*u.n) * u.unit).String()
}

func (u unitFlag) Set(s string) error {
	d, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	round := u.unit - 1
	if d < 0 {
		round = -round
	}
	*u.n = int((d + round) / u.unit)
	return nil
}

// listenFlag presents a stream list as comma-separated listen addresses.
type listenFlag struct{ streams *[]config.StreamConfig }

func (l listenFlag) String() string {
	if l.streams == nil {
		return ""
	}
	addrs := make([]string, len(*l.streams))
	for i, s := range *l.streams {
		addrs[i] = s.Listen
	}
	return strings.Join(addrs, ",")
}

func (l listenFlag) Set(s string) error {
	*l.streams = nil
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			*l.streams = append(*l.streams, config.StreamConfig{Listen: a})
		}
	}
	return nil
}

// nodesFlag presents the cluster node list in the -forward-to grammar.
type nodesFlag struct{ nodes *[]config.ClusterNode }

func (n nodesFlag) String() string {
	if n.nodes == nil {
		return ""
	}
	parts := make([]string, len(*n.nodes))
	for i, nd := range *n.nodes {
		parts[i] = nd.Name + "=" + nd.Flow + "/" + nd.DNS
	}
	return strings.Join(parts, ",")
}

func (n nodesFlag) Set(s string) error {
	nodes, err := forward.ParseNodes(s)
	if err != nil {
		return err
	}
	*n.nodes = nil
	for _, nd := range nodes {
		*n.nodes = append(*n.nodes, config.ClusterNode{Name: nd.Name, Flow: nd.FlowAddr, DNS: nd.DNSAddr})
	}
	return nil
}

// seconds converts a config field counted in whole seconds.
func seconds(n int) time.Duration { return time.Duration(n) * time.Second }

// armedFaults lists the currently armed failpoint specs for the startup log.
func armedFaults() []string {
	var out []string
	for _, st := range fault.List() {
		if st.Spec != "" {
			out = append(out, st.Name+"="+st.Spec)
		}
	}
	return out
}

// listen binds every configured input: each DNS address accepts any number
// of stream connections, each NetFlow address is one collector socket.
func listen(file *config.File) ([]stream.Source, error) {
	var sources []stream.Source
	for _, s := range file.DNSStreams {
		ln, err := net.Listen("tcp", s.Listen)
		if err != nil {
			return nil, fmt.Errorf("dns listen %s: %w", s.Listen, err)
		}
		log.Printf("flowdns: DNS stream listener on %s", ln.Addr())
		l := stream.NewDNSListener(ln)
		l.IdleTimeout = seconds(file.Correlator.DNSIdleTimeoutSeconds)
		sources = append(sources, l)
	}
	for _, s := range file.FlowStreams {
		pc, err := net.ListenPacket("udp", s.Listen)
		if err != nil {
			return nil, fmt.Errorf("netflow listen %s: %w", s.Listen, err)
		}
		log.Printf("flowdns: NetFlow listener on %s", pc.LocalAddr())
		src := stream.NewFlowUDPSource(pc)
		src.BatchSize = file.Correlator.IngestBatch
		sources = append(sources, src)
	}
	return sources, nil
}

// runRouter is the -role router program: consistent-hash fan-out of every
// ingested record to the worker ring, plus /ring, /metrics, and
// /query/health on the query address. Terminates like the daemon:
// SIGINT/SIGTERM stops intake, flushes the per-node sinks, and exits.
func runRouter(ctx context.Context, file *config.File, key core.LookupKey, sources []stream.Source) {
	nodes := make([]forward.Node, len(file.Cluster.Nodes))
	for i, n := range file.Cluster.Nodes {
		nodes[i] = forward.Node{Name: n.Name, FlowAddr: n.Flow, DNSAddr: n.DNS}
	}
	r, err := forward.NewRouter(forward.Config{Nodes: nodes, VNodes: file.Cluster.VNodes, Key: key})
	if err != nil {
		log.Fatalf("flowdns: %v", err)
	}
	if addr := file.Query.Listen; addr != "" {
		qsrv, err := queryapi.New(nil,
			queryapi.WithAddr(addr),
			queryapi.WithExtraMetrics(r.MetricsContributor()),
			queryapi.WithAdminHandler("/ring", r.RingHandler()),
			queryapi.WithClusterInfo(func() queryapi.ClusterInfo {
				return queryapi.ClusterInfo{
					Role: "router", Node: file.Cluster.Node,
					Nodes: r.Ring().Nodes(), VNodes: r.Ring().VNodes(),
				}
			}),
		)
		if err != nil {
			log.Fatalf("flowdns: %v", err)
		}
		go func() {
			if err := qsrv.Serve(ctx); err != nil {
				log.Printf("flowdns: router admin: %v", err)
			}
		}()
		log.Printf("flowdns: router admin on http://%s/ring", addr)
	}
	log.Printf("flowdns: router fanning out to %s (vnodes=%d)",
		strings.Join(r.Ring().Nodes(), ","), r.Ring().VNodes())
	if err := r.Run(ctx, sources...); err != nil {
		log.Fatalf("flowdns: %v", err)
	}
	for _, st := range r.Stats() {
		log.Printf("flowdns: node %s: flows=%d dns=%d cname=%d dnsDropped=%d spillDropped=%d",
			st.Node.Name, st.Flows, st.DNS, st.DNSCname, st.DNSDropped, st.Retry.Dropped)
	}
	log.Printf("flowdns: router drained")
}

// buildRollup constructs the attribution rollup engine and its sink, and
// stacks the sink on top of base through the multi-sink. The returned
// cleanup closes the export file after the pipeline has drained.
//
// Attribution tables go through hot handles: the returned reload function
// (nil when neither table nor blocklist is configured) re-reads the
// configured files and atomically swaps them in, without stopping the
// pipeline — batches in flight finish against the table they started with,
// the next batch sees the new one, and no lookup is ever dropped. It serves
// both SIGHUP and POST /admin/reload.
func buildRollup(rc config.RollupConfig, base core.Sink, outputs []config.OutputConfig, onSeal func([]rollup.Window)) (*rollup.Rollup, core.Sink, func(), func() error, error) {
	format, err := rollup.ParseFormat(rc.Format)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	engine := rollup.New(rc.Window(), rc.Shards)
	opts := []rollup.SinkOption{rollup.WithRotation(rc.Window())}
	if onSeal != nil {
		opts = append(opts, rollup.WithOnSeal(onSeal))
	}
	var hotTable *bgp.Hot
	if rc.BGPTable != "" {
		table, err := bgp.LoadTable(rc.BGPTable)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		hotTable = bgp.NewHot(table) // freezes: the lanes writing to the sink only read
		opts = append(opts, rollup.WithHotTable(hotTable))
		log.Printf("flowdns: rollup: %d BGP prefixes loaded from %s", table.Len(), rc.BGPTable)
	}
	var hotList *dbl.Hot
	if rc.Blocklist != "" {
		list, err := dbl.LoadList(rc.Blocklist)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		hotList = dbl.NewHot(list)
		opts = append(opts, rollup.WithHotBlocklist(hotList))
		log.Printf("flowdns: rollup: %d blocklisted domains loaded from %s", list.Len(), rc.Blocklist)
	}
	var reload func() error
	if hotTable != nil || hotList != nil {
		reload = func() error {
			// Load everything before swapping anything: a reload that fails
			// halfway must leave both tables as they were, not half-new.
			var table *bgp.Table
			var list *dbl.List
			if hotTable != nil {
				var err error
				if table, err = bgp.LoadTable(rc.BGPTable); err != nil {
					return fmt.Errorf("bgp table %s: %w", rc.BGPTable, err)
				}
			}
			if hotList != nil {
				var err error
				if list, err = dbl.LoadList(rc.Blocklist); err != nil {
					return fmt.Errorf("blocklist %s: %w", rc.Blocklist, err)
				}
			}
			if table != nil {
				hotTable.Swap(table)
				log.Printf("flowdns: reloaded %d BGP prefixes from %s", table.Len(), rc.BGPTable)
			}
			if list != nil {
				hotList.Swap(list)
				log.Printf("flowdns: reloaded %d blocklisted domains from %s", list.Len(), rc.Blocklist)
			}
			return nil
		}
	}
	cleanup := func() {}
	switch rc.Path {
	case "":
		// No file export: windows reachable via /rollups until sealed.
	case "-":
		// Same rule buildSink enforces: two independently buffered writers
		// on stdout would interleave rows mid-line.
		for _, o := range outputs {
			if o.NeedsWriter() && (o.Path == "" || o.Path == "-") {
				return nil, nil, nil, nil, errors.New("rollup export and an output sink both write to stdout")
			}
		}
		opts = append(opts, rollup.WithExport(os.Stdout, format))
	default:
		for _, o := range outputs {
			if o.Path == rc.Path {
				return nil, nil, nil, nil, fmt.Errorf("rollup export path %q already used by an output sink", rc.Path)
			}
		}
		f, err := os.Create(rc.Path)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cleanup = func() { f.Close() }
		opts = append(opts, rollup.WithExport(f, format))
	}
	rsink := rollup.NewSink(engine, opts...)
	if ms, ok := base.(core.MultiSink); ok {
		return engine, append(ms, rsink), cleanup, reload, nil
	}
	return engine, core.MultiSink{base, rsink}, cleanup, reload, nil
}

// buildSink constructs the configured sink(s); several outputs fan out
// through a MultiSink. Outputs with a retry block are wrapped in a
// core.RetrySink. The returned cleanup closes any opened files after the
// pipeline has flushed; the metrics contributors export per-sink counters
// (Influx drops, retry/spill depths) on /metrics.
func buildSink(outputs []config.OutputConfig) (core.Sink, func(), []func(*metrics.PromWriter), error) {
	var files []*os.File
	closeFiles := func() {
		for _, f := range files {
			f.Close()
		}
	}
	var sinks []core.Sink
	var extra []func(*metrics.PromWriter)
	stdoutOutputs := 0
	seenPaths := make(map[string]bool)
	for i, o := range outputs {
		var w io.Writer
		switch {
		case !o.NeedsWriter():
			// counting/discard ignore the writer; do not create (and
			// truncate) a file nothing will ever write to.
		case o.Path != "" && o.Path != "-":
			// Two sinks on one file would truncate each other and
			// interleave independent write buffers mid-line.
			if seenPaths[o.Path] {
				closeFiles()
				return nil, nil, nil, fmt.Errorf("output path %q used by more than one sink", o.Path)
			}
			seenPaths[o.Path] = true
			f, err := os.Create(o.Path)
			if err != nil {
				closeFiles()
				return nil, nil, nil, err
			}
			files = append(files, f)
			w = f
		default:
			// Two record-writing sinks sharing stdout would interleave
			// their independent write buffers mid-line.
			if stdoutOutputs++; stdoutOutputs > 1 {
				closeFiles()
				return nil, nil, nil, errors.New("at most one output may write to stdout")
			}
			w = os.Stdout
		}
		s, err := o.NewSink(w)
		if err != nil {
			closeFiles()
			return nil, nil, nil, err
		}
		label := o.Sink
		if label == "" {
			label = "tsv"
		}
		label = fmt.Sprintf("%s[%d]", label, i)
		if is, ok := s.(*influxsink.Sink); ok {
			extra = append(extra, influxSinkMetrics(label, is))
		}
		if o.Retry != nil {
			rs, err := core.NewRetrySink(s, o.Retry.Core())
			if err != nil {
				closeFiles()
				return nil, nil, nil, err
			}
			extra = append(extra, retrySinkMetrics(label, rs))
			s = rs
		}
		sinks = append(sinks, s)
	}
	if len(sinks) == 1 {
		return sinks[0], closeFiles, extra, nil
	}
	return core.MultiSink(sinks), closeFiles, extra, nil
}

// retrySinkMetrics exports one RetrySink's accounting under a sink label.
func retrySinkMetrics(label string, rs *core.RetrySink) func(*metrics.PromWriter) {
	lbl := map[string]string{"sink": label}
	return func(p *metrics.PromWriter) {
		st := rs.Stats()
		p.Counter("flowdns_retry_delivered_total", "Records the wrapped sink accepted.", lbl, st.Delivered)
		p.Counter("flowdns_retry_retries_total", "Retry attempts after a failed write.", lbl, st.Retries)
		p.Counter("flowdns_retry_spilled_total", "Records diverted to the spill queue.", lbl, st.Spilled)
		p.Counter("flowdns_retry_replayed_total", "Spilled records later delivered.", lbl, st.Replayed)
		p.Counter("flowdns_retry_dropped_total", "Records dropped against full spill bounds.", lbl, st.Dropped)
		p.Counter("flowdns_retry_panics_contained_total", "Inner-sink panics converted to errors.", lbl, st.PanicsContained)
		p.GaugeInt("flowdns_retry_spill_depth", "Backlogged records (memory + disk).", lbl, int64(st.SpillDepth))
		p.GaugeInt("flowdns_retry_spill_disk_depth", "Backlogged records on disk.", lbl, int64(st.DiskDepth))
		p.GaugeInt("flowdns_retry_spill_bytes", "Spill file size.", lbl, st.SpillBytes)
	}
}

// influxSinkMetrics exports one Influx sink's accounting under a sink label.
func influxSinkMetrics(label string, is *influxsink.Sink) func(*metrics.PromWriter) {
	lbl := map[string]string{"sink": label}
	return func(p *metrics.PromWriter) {
		st := is.SinkStats()
		p.Counter("flowdns_influx_points_total", "Line-protocol points buffered.", lbl, st.Points)
		p.Counter("flowdns_influx_sends_total", "Successful batch sends.", lbl, st.Sends)
		p.Counter("flowdns_influx_send_errors_total", "Failed batch sends.", lbl, st.SendErrors)
		p.Counter("flowdns_influx_dropped_bytes_total", "Buffered bytes dropped at the buffer bound.", lbl, st.DroppedBytes)
		p.Counter("flowdns_influx_dropped_records_total", "Buffered records dropped at the buffer bound.", lbl, st.DroppedRecords)
		p.Counter("flowdns_influx_dropped_batches_total", "Bound-enforcement passes that dropped data.", lbl, st.DroppedBatches)
	}
}

func logStats(st core.Stats) {
	log.Printf("flowdns: dns=%d flows=%d corr=%.3f(bytes) loss=%.5f ipname=%d namecname=%d writeDelay=%v",
		st.DNSRecords, st.Flows, st.CorrelationRate(), st.LossRate(),
		st.IPNameEntries, st.NameCnameEntries, time.Duration(st.MaxWriteDelayNs).Round(time.Millisecond))
	// A failing checkpointer must be loud: a daemon that silently writes no
	// snapshots delivers its bad news as a cold restart after the crash.
	if st.CheckpointErrors > 0 {
		log.Printf("flowdns: WARNING: %d checkpoint write(s) failed (%d succeeded); next restart may be cold",
			st.CheckpointErrors, st.Checkpoints)
	}
}
