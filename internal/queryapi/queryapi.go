// Package queryapi is the serving plane over the window store: a small
// HTTP API answering the paper's §5 attribution questions ("bytes per
// service over the last 6 hours") from sealed rollup windows.
//
// Endpoints:
//
//	/query/services    per-service time series over [from, to)
//	/query/asns        per-AS time series
//	/query/categories  per-DBL-category time series
//	/query/health      store coverage + cache counters + pipeline loss accounting
//	/metrics           pipeline + store stats, Prometheus text format
//	/rollups           live (unsealed) windows, when a rollup engine is attached
//	/admin/reload      POST: hot-swap the BGP/DBL attribution tables, when wired
//	/admin/fault       GET: failpoint catalog; POST: arm or disarm one, when wired
//
// The range endpoints share parameters: from / to (unix seconds or
// RFC 3339), step (Go duration or seconds; 0 = one bucket for the whole
// range), top (keep the N heaviest keys per bucket, aggregate the rest into
// an OTHER row). Buckets are aligned to the epoch in multiples of step, and
// series within a bucket sort bytes-descending then key-ascending —
// responses are canonical, which is what makes them cacheable.
//
// Results are materialized once and served from an LRU cache of finished
// response bodies; the store's per-partition invalidation feed (seal,
// compaction, retention) drops exactly the entries whose range a changed
// partition overlaps.
package queryapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rollup"
	"repro/internal/winstore"
)

// OtherKey is the synthetic series key aggregating everything beyond the
// top-N heaviest keys of a bucket.
const OtherKey = "OTHER"

// Server is the query-plane HTTP server. Construct with New; it implements
// core.Service so the daemon runs it under the pipeline lifecycle.
type Server struct {
	store    *winstore.Store
	addr     string
	ln       net.Listener
	roll     *rollup.Rollup
	draining func() bool
	pipeline func() core.Stats
	reload   func() error
	faults   bool
	extra    []func(*metrics.PromWriter)
	admin    []adminMount
	cluster  func() ClusterInfo
	cache    *cache
	mux      *http.ServeMux
}

// adminMount is one extra handler to mount on the server's mux.
type adminMount struct {
	pattern string
	h       http.Handler
}

// Option configures a Server.
type Option func(*Server)

// WithAddr sets the listen address (ignored when WithListener is given).
func WithAddr(addr string) Option { return func(s *Server) { s.addr = addr } }

// WithListener serves on an existing listener — the test seam.
func WithListener(ln net.Listener) Option { return func(s *Server) { s.ln = ln } }

// WithRollups mounts the live-window /rollups endpoint for r on the same mux.
func WithRollups(r *rollup.Rollup) Option { return func(s *Server) { s.roll = r } }

// WithDraining supplies the pipeline's drain flag: once it reports true,
// /rollups answers 503 and /query/health reports "draining".
func WithDraining(fn func() bool) Option { return func(s *Server) { s.draining = fn } }

// WithPipelineStats supplies the correlator's stats snapshot for /metrics.
func WithPipelineStats(fn func() core.Stats) Option { return func(s *Server) { s.pipeline = fn } }

// WithCache overrides the materialized-result cache size (entries).
func WithCache(entries int) Option { return func(s *Server) { s.cache = newCache(entries) } }

// WithReload mounts POST /admin/reload, invoking fn — the daemon's
// attribution-table reload (BGP table + DBL list atomic swap). The same fn
// serves SIGHUP, so both triggers share one code path.
func WithReload(fn func() error) Option { return func(s *Server) { s.reload = fn } }

// WithFaultAdmin mounts /admin/fault: GET lists every registered failpoint
// with its armed spec and hit count; POST arms one ("name" + "spec" form
// values) or disarms it (empty spec). Off by default — fault injection is a
// chaos-testing surface, not something a production /metrics scraper should
// find enabled by accident.
func WithFaultAdmin() Option { return func(s *Server) { s.faults = true } }

// WithExtraMetrics appends a metrics contributor invoked on every /metrics
// scrape — the seam through which the daemon exports sink stats (RetrySink
// spill depths, Influx drops) without queryapi importing those packages.
func WithExtraMetrics(fn func(*metrics.PromWriter)) Option {
	return func(s *Server) { s.extra = append(s.extra, fn) }
}

// WithAdminHandler mounts an extra handler on the server's mux — the seam
// through which the cluster tier attaches its surfaces (/admin/handoff on
// workers, /ring on the router) without queryapi importing the forward
// package.
func WithAdminHandler(pattern string, h http.Handler) Option {
	return func(s *Server) { s.admin = append(s.admin, adminMount{pattern, h}) }
}

// ClusterInfo is the /query/health cluster block: which role and ring the
// answering process belongs to.
type ClusterInfo struct {
	Role   string   `json:"role"`            // "router" or "worker"
	Node   string   `json:"node,omitempty"`  // this process's ring name (workers)
	Nodes  []string `json:"nodes,omitempty"` // ring membership, canonical order
	VNodes int      `json:"vnodes,omitempty"`
}

// WithClusterInfo adds the cluster block to /query/health.
func WithClusterInfo(fn func() ClusterInfo) Option {
	return func(s *Server) { s.cluster = fn }
}

// New builds a Server over the store and registers its cache on the store's
// invalidation feed. A nil store is allowed — a cluster router has no
// window store but still serves /metrics, /query/health, and its admin
// surfaces; the /query range endpoints then answer 503.
func New(store *winstore.Store, opts ...Option) (*Server, error) {
	s := &Server{store: store}
	for _, o := range opts {
		o(s)
	}
	if s.cache == nil {
		s.cache = newCache(DefaultCacheEntries)
	}
	if store != nil {
		store.OnInvalidate(s.cache.InvalidateRange)
	}

	s.mux = http.NewServeMux()
	s.mux.Handle("/query/services", s.queryHandler("services"))
	s.mux.Handle("/query/asns", s.queryHandler("asns"))
	s.mux.Handle("/query/categories", s.queryHandler("categories"))
	s.mux.HandleFunc("/query/health", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if s.roll != nil {
		s.mux.Handle("/rollups", rollup.SnapshotHandler(s.roll, s.draining))
	}
	if s.reload != nil {
		s.mux.HandleFunc("/admin/reload", s.handleReload)
	}
	if s.faults {
		s.mux.HandleFunc("/admin/fault", s.handleFault)
	}
	for _, m := range s.admin {
		s.mux.Handle(m.pattern, m.h)
	}
	return s, nil
}

// handleFault is the chaos-testing surface: GET returns the failpoint
// catalog (name, armed spec, hits); POST arms or disarms one point. Arming
// uses the same "[count*]action(arg)" grammar as the FLOWDNS_FAULTS
// environment variable, so an operator can copy a spec between the two.
func (s *Server) handleFault(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(fault.List())
	case http.MethodPost:
		name := req.FormValue("name")
		if name == "" {
			http.Error(w, "missing name", http.StatusBadRequest)
			return
		}
		spec := req.FormValue("spec")
		if spec == "" {
			if !fault.Disable(name) {
				http.Error(w, fmt.Sprintf("unknown failpoint %q", name), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"status\":\"disabled\",\"name\":%q}\n", name)
			return
		}
		if err := fault.Enable(name, spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"enabled\",\"name\":%q,\"spec\":%q}\n", name, spec)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleReload swaps in fresh attribution tables. POST only: the swap is a
// state change, and keeping it off GET keeps crawlers and health checks from
// triggering disk reloads.
func (s *Server) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := s.reload(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"reloaded"}`)
}

// Handler returns the server's mux — every endpoint on one handler.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats snapshots the materialized-result cache.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// Addr returns the bound listen address once Serve has opened it (or the
// listener given via WithListener).
func (s *Server) Addr() string {
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.addr
}

// Name implements core.Service.
func (s *Server) Name() string { return "queryapi" }

// Serve runs the HTTP server until ctx is done, then shuts it down
// gracefully (in-flight queries finish; new connections are refused).
func (s *Server) Serve(ctx context.Context) error {
	ln := s.ln
	if ln == nil {
		if s.addr == "" {
			return errors.New("queryapi: no listen address")
		}
		var err error
		ln, err = net.Listen("tcp", s.addr)
		if err != nil {
			return fmt.Errorf("queryapi: %w", err)
		}
		s.ln = ln
	}
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("queryapi: %w", err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("queryapi: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after a clean Shutdown
	return nil
}

// --- range queries ---------------------------------------------------------

// seriesEntry is one key's counters within a bucket.
type seriesEntry struct {
	Key     string `json:"key"`
	Other   bool   `json:"other,omitempty"`
	Bytes   uint64 `json:"bytes"`
	Packets uint64 `json:"packets"`
	Flows   uint64 `json:"flows"`
}

// bucket is one step interval of the response.
type bucket struct {
	Start  int64         `json:"start"`
	Series []seriesEntry `json:"series"`
}

// queryResponse is the wire shape of a /query/* range result.
type queryResponse struct {
	Dimension string   `json:"dimension"`
	From      int64    `json:"from"`
	To        int64    `json:"to"`
	StepSecs  int64    `json:"step_secs"`
	Top       int      `json:"top,omitempty"`
	Buckets   []bucket `json:"buckets"`
}

// parseTime accepts unix seconds or RFC 3339.
func parseTime(v string) (time.Time, error) {
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.Unix(secs, 0).UTC(), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad time %q (unix seconds or RFC 3339)", v)
	}
	return t.UTC(), nil
}

// parseStep accepts a Go duration or plain seconds.
func parseStep(v string) (time.Duration, error) {
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.Duration(secs) * time.Second, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad step %q (duration or seconds)", v)
	}
	return d, nil
}

// queryParams is a parsed /query/* request.
type queryParams struct {
	from, to time.Time
	step     time.Duration
	top      int
}

// parseQuery extracts and validates the range parameters, defaulting an
// omitted from/to to the store's coverage bounds.
func (s *Server) parseQuery(req *http.Request) (queryParams, error) {
	var p queryParams
	q := req.URL.Query()
	oldest, newest := s.store.Bounds()
	p.from, p.to = oldest, newest
	var err error
	if v := q.Get("from"); v != "" {
		if p.from, err = parseTime(v); err != nil {
			return p, err
		}
	}
	if v := q.Get("to"); v != "" {
		if p.to, err = parseTime(v); err != nil {
			return p, err
		}
	}
	if p.to.Before(p.from) {
		return p, fmt.Errorf("empty range: to %d before from %d", p.to.Unix(), p.from.Unix())
	}
	if v := q.Get("step"); v != "" {
		if p.step, err = parseStep(v); err != nil {
			return p, err
		}
		if p.step < time.Second {
			return p, fmt.Errorf("step %v below 1s", p.step)
		}
		p.step = p.step.Round(time.Second)
	}
	if v := q.Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, fmt.Errorf("bad top %q (positive integer)", v)
		}
		p.top = n
	}
	return p, nil
}

// rowKey projects a rollup row onto the requested dimension. The services
// dimension spells uncorrelated traffic "NULL", matching the TSV sink.
func rowKey(dim string, r *rollup.Row) string {
	switch dim {
	case "services":
		if r.Service == "" {
			return "NULL"
		}
		return r.Service
	case "asns":
		return strconv.FormatUint(uint64(r.ASN), 10)
	default: // categories
		return r.Category.String()
	}
}

// bucketStart aligns t to the epoch in multiples of step.
func bucketStart(t time.Time, step time.Duration) int64 {
	ssecs := int64(step / time.Second)
	u := t.Unix()
	m := u % ssecs
	if m < 0 {
		m += ssecs
	}
	return u - m
}

// materialize computes the canonical response for one dimension and range.
func (s *Server) materialize(dim string, p queryParams) *queryResponse {
	resp := &queryResponse{
		Dimension: dim,
		From:      p.from.Unix(),
		To:        p.to.Unix(),
		Top:       p.top,
	}
	step := p.step
	if step <= 0 {
		// One bucket spanning the whole range.
		step = p.to.Sub(p.from)
		if step <= 0 {
			step = time.Second
		}
		resp.StepSecs = int64(step / time.Second)
	} else {
		resp.StepSecs = int64(step / time.Second)
	}

	windows := s.store.Query(p.from, p.to)
	type agg map[string]*seriesEntry
	buckets := make(map[int64]agg)
	for i := range windows {
		w := &windows[i]
		var bs int64
		if p.step <= 0 {
			bs = p.from.Unix()
		} else {
			bs = bucketStart(w.Start, step)
		}
		a := buckets[bs]
		if a == nil {
			a = make(agg)
			buckets[bs] = a
		}
		for j := range w.Rows {
			r := &w.Rows[j]
			key := rowKey(dim, r)
			e := a[key]
			if e == nil {
				e = &seriesEntry{Key: key}
				a[key] = e
			}
			e.Bytes += r.Bytes
			e.Packets += r.Packets
			e.Flows += r.Flows
		}
	}

	starts := make([]int64, 0, len(buckets))
	for bs := range buckets {
		starts = append(starts, bs)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	resp.Buckets = make([]bucket, 0, len(starts))
	for _, bs := range starts {
		a := buckets[bs]
		series := make([]seriesEntry, 0, len(a))
		for _, e := range a {
			series = append(series, *e)
		}
		sort.Slice(series, func(i, j int) bool {
			if series[i].Bytes != series[j].Bytes {
				return series[i].Bytes > series[j].Bytes
			}
			return series[i].Key < series[j].Key
		})
		if p.top > 0 && len(series) > p.top {
			other := seriesEntry{Key: OtherKey, Other: true}
			for _, e := range series[p.top:] {
				other.Bytes += e.Bytes
				other.Packets += e.Packets
				other.Flows += e.Flows
			}
			series = append(series[:p.top], other)
		}
		resp.Buckets = append(resp.Buckets, bucket{Start: bs, Series: series})
	}
	return resp
}

// queryHandler serves one dimension's range endpoint, caching finished
// bodies keyed by the full parameter tuple.
func (s *Server) queryHandler(dim string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if s.store == nil {
			http.Error(w, "no window store on this node (router role?)", http.StatusServiceUnavailable)
			return
		}
		p, err := s.parseQuery(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key := fmt.Sprintf("%s|%d|%d|%d|%d", dim, p.from.Unix(), p.to.Unix(), int64(p.step/time.Second), p.top)
		body := s.cache.get(key)
		if body == nil {
			var err error
			body, err = json.MarshalIndent(s.materialize(dim, p), "", "  ")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			body = append(body, '\n')
			// Widen the invalidation range by one partition on the from side:
			// a window can overlap the range from a partition that starts
			// before it, and a late partial re-opening that partition must
			// still drop this entry.
			s.cache.put(key, body, p.from.Add(-s.store.PartDur()), p.to)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		w.Write(body)
	})
}

// --- health ---------------------------------------------------------------

// lossQueue is one stage queue's loss accounting within /query/health.
type lossQueue struct {
	Offered uint64 `json:"offered"`
	Dropped uint64 `json:"dropped"`
	Sampled uint64 `json:"sampled"`
}

// lossStatus is the /query/health overload-degradation block: how much of
// the offered load was lost, and how much of that loss was the sampler's
// deliberate, accounted shed rather than accidental overflow.
type lossStatus struct {
	LossRate    float64   `json:"loss_rate"`
	SampledRate float64   `json:"sampled_rate"`
	Fill        lossQueue `json:"fill"`
	Look        lossQueue `json:"look"`
}

// supervisionStatus is the /query/health robustness block: what the panic
// containment and restart machinery has absorbed so far. A non-zero Panics
// with the process still answering this request is the supervision layer
// working as designed.
type supervisionStatus struct {
	Poisoned   uint64                  `json:"poisoned"`
	Panics     uint64                  `json:"panics"`
	Restarts   uint64                  `json:"restarts"`
	Components []core.SupervisedStatus `json:"components,omitempty"`
}

// healthResponse is the /query/health wire shape.
type healthResponse struct {
	Status      string             `json:"status"` // "ok" or "draining"
	Oldest      int64              `json:"oldest,omitempty"`
	Newest      int64              `json:"newest,omitempty"`
	Partitions  int                `json:"partitions"`
	Windows     int                `json:"windows"`
	Rows        int                `json:"rows"`
	DiskBytes   int64              `json:"disk_bytes"`
	Cache       CacheStats         `json:"cache"`
	Loss        *lossStatus        `json:"loss,omitempty"`
	Supervision *supervisionStatus `json:"supervision,omitempty"`
	Cluster     *ClusterInfo       `json:"cluster,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	resp := healthResponse{
		Status: "ok",
		Cache:  s.cache.stats(),
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Partitions = st.Partitions
		resp.Windows = st.Windows
		resp.Rows = st.Rows
		resp.DiskBytes = st.DiskBytes
	}
	if s.draining != nil && s.draining() {
		resp.Status = "draining"
	}
	if s.cluster != nil {
		ci := s.cluster()
		resp.Cluster = &ci
	}
	if s.pipeline != nil {
		ps := s.pipeline()
		resp.Loss = &lossStatus{
			LossRate:    ps.LossRate(),
			SampledRate: ps.SampledRate(),
			Fill:        lossQueue{Offered: ps.FillQueue.Offered(), Dropped: ps.FillQueue.Dropped, Sampled: ps.FillQueue.Sampled},
			Look:        lossQueue{Offered: ps.LookQueue.Offered(), Dropped: ps.LookQueue.Dropped, Sampled: ps.LookQueue.Sampled},
		}
		resp.Supervision = &supervisionStatus{
			Poisoned:   ps.Poisoned,
			Panics:     ps.Panics,
			Restarts:   ps.Restarts,
			Components: ps.Supervised,
		}
	}
	if s.store != nil {
		if oldest, newest := s.store.Bounds(); !oldest.IsZero() {
			resp.Oldest, resp.Newest = oldest.Unix(), newest.Unix()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&resp)
}

// --- metrics --------------------------------------------------------------

// handleMetrics exports pipeline, store, and cache counters in Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	p := metrics.NewPromWriter()
	if s.pipeline != nil {
		writePipelineMetrics(p, s.pipeline())
	}
	if s.store != nil {
		writeStoreMetrics(p, s.store.Stats())
	}
	writeCacheMetrics(p, s.cache.stats())
	writeFaultMetrics(p)
	for _, fn := range s.extra {
		fn(p)
	}
	w.Header().Set("Content-Type", metrics.ContentTypePromText)
	w.Header().Set("Cache-Control", "no-store")
	p.WriteTo(w)
}

func writePipelineMetrics(p *metrics.PromWriter, st core.Stats) {
	p.Counter("flowdns_dns_records_total", "Valid DNS records filled up.", nil, st.DNSRecords)
	p.Counter("flowdns_dns_invalid_total", "DNS records rejected by the filter.", nil, st.DNSInvalid)
	p.Counter("flowdns_flows_total", "Flow records processed by LookUp.", nil, st.Flows)
	p.Counter("flowdns_flow_invalid_total", "Flow records rejected as invalid.", nil, st.FlowInvalid)
	p.Counter("flowdns_flow_bytes_total", "Total traffic volume seen.", nil, st.FlowBytes)
	p.Counter("flowdns_correlated_total", "Flows with a resolved name.", nil, st.Correlated)
	p.Counter("flowdns_correlated_bytes_total", "Traffic volume with a resolved name.", nil, st.CorrelatedBytes)
	p.Counter("flowdns_misses_total", "Flows without a resolved name.", nil, st.Misses)
	p.Counter("flowdns_lookup_hits_total", "LookUp hits by store tier.",
		map[string]string{"tier": "active"}, st.HitActive)
	p.Counter("flowdns_lookup_hits_total", "LookUp hits by store tier.",
		map[string]string{"tier": "inactive"}, st.HitInactive)
	p.Counter("flowdns_lookup_hits_total", "LookUp hits by store tier.",
		map[string]string{"tier": "long"}, st.HitLong)
	p.Counter("flowdns_memoized_total", "Flows answered from the memo cache.", nil, st.Memoized)
	p.Counter("flowdns_written_total", "Correlated flows written by the sink.", nil, st.Written)
	p.Gauge("flowdns_correlation_rate", "Correlated bytes over total bytes.", nil, st.CorrelationRate())
	p.GaugeInt("flowdns_max_write_delay_ns", "Worst observed LookUp-to-write latency.", nil, st.MaxWriteDelayNs)
	p.GaugeInt("flowdns_ip_name_entries", "Entries in the ip->name store.", nil, int64(st.IPNameEntries))
	p.GaugeInt("flowdns_name_cname_entries", "Entries in the name->cname store.", nil, int64(st.NameCnameEntries))
	p.Counter("flowdns_checkpoints_total", "Successful checkpoint writes.", nil, st.Checkpoints)
	p.Counter("flowdns_checkpoint_errors_total", "Failed checkpoint writes.", nil, st.CheckpointErrors)
	p.Counter("flowdns_queue_dropped_total", "Records dropped at a stage queue.",
		map[string]string{"queue": "fill"}, st.FillQueue.Dropped)
	p.Counter("flowdns_queue_dropped_total", "Records dropped at a stage queue.",
		map[string]string{"queue": "look"}, st.LookQueue.Dropped)
	p.Counter("flowdns_queue_sampled_total", "Records deliberately shed by the adaptive sampler.",
		map[string]string{"queue": "fill"}, st.FillQueue.Sampled)
	p.Counter("flowdns_queue_sampled_total", "Records deliberately shed by the adaptive sampler.",
		map[string]string{"queue": "look"}, st.LookQueue.Sampled)
	p.Gauge("flowdns_loss_rate", "Lost (dropped + sampled) over offered, across all stage queues.", nil, st.LossRate())
	p.Gauge("flowdns_sampled_rate", "Deliberately sampled over offered, across all stage queues.", nil, st.SampledRate())
	for i := range st.LaneDNSDepth {
		lane := strconv.Itoa(i)
		p.GaugeInt("flowdns_lane_depth", "Records waiting in a lane's ring.",
			map[string]string{"lane": lane, "ring": "dns"}, int64(st.LaneDNSDepth[i]))
		p.GaugeInt("flowdns_lane_depth", "Records waiting in a lane's ring.",
			map[string]string{"lane": lane, "ring": "flow"}, int64(st.LaneFlowDepth[i]))
	}
	p.Counter("flowdns_poisoned_total", "Records dropped by panic containment.", nil, st.Poisoned)
	for _, c := range st.Supervised {
		p.Counter("flowdns_panics_total", "Contained panics by supervised component.",
			map[string]string{"component": c.Name}, c.Panics)
		p.Counter("flowdns_restarts_total", "Supervised goroutine restarts by component.",
			map[string]string{"component": c.Name}, c.Restarts)
	}
}

// writeFaultMetrics exports the armed state and hit counts of every
// registered failpoint. With nothing armed this is a block of zeros — which
// is itself the signal that the disabled fast path is what production runs.
func writeFaultMetrics(p *metrics.PromWriter) {
	for _, st := range fault.List() {
		p.Counter("flowdns_fault_hits_total", "Failpoint fires since process start.",
			map[string]string{"point": st.Name}, st.Hits)
		armed := 0.0
		if st.Spec != "" {
			armed = 1
		}
		p.Gauge("flowdns_fault_armed", "Whether the failpoint is currently armed.",
			map[string]string{"point": st.Name}, armed)
	}
}

func writeStoreMetrics(p *metrics.PromWriter, st winstore.Stats) {
	p.GaugeInt("flowdns_store_partitions", "Partitions in the window store.", nil, int64(st.Partitions))
	p.GaugeInt("flowdns_store_partitions_compacted", "Partitions already compacted.", nil, int64(st.Compacted))
	p.GaugeInt("flowdns_store_windows", "Windows held across all partitions.", nil, int64(st.Windows))
	p.GaugeInt("flowdns_store_rows", "Rows held across all windows.", nil, int64(st.Rows))
	p.GaugeInt("flowdns_store_disk_bytes", "Bytes across all segment files.", nil, st.DiskBytes)
	p.Counter("flowdns_store_windows_persisted_total", "Sealed windows accepted by the store.", nil, st.WindowsPersisted)
	p.Counter("flowdns_store_segment_writes_total", "Successful segment file writes.", nil, st.SegmentWrites)
	p.Counter("flowdns_store_write_errors_total", "Failed segment file writes.", nil, st.WriteErrors)
	p.Counter("flowdns_store_compactions_total", "Partitions compacted.", nil, st.Compactions)
	p.Counter("flowdns_store_retention_deletes_total", "Partitions deleted by retention.", nil, st.RetentionDeletes)
	p.Counter("flowdns_store_load_errors_total", "Partitions opened with a damaged tail.", nil, st.LoadErrors)
}

func writeCacheMetrics(p *metrics.PromWriter, st CacheStats) {
	p.GaugeInt("flowdns_query_cache_entries", "Materialized results cached.", nil, int64(st.Entries))
	p.Counter("flowdns_query_cache_hits_total", "Query cache hits.", nil, st.Hits)
	p.Counter("flowdns_query_cache_misses_total", "Query cache misses.", nil, st.Misses)
	p.Counter("flowdns_query_cache_evictions_total", "Query cache LRU evictions.", nil, st.Evictions)
	p.Counter("flowdns_query_cache_invalidations_total", "Query cache entries dropped by partition invalidation.", nil, st.Invalidations)
}
