package queryapi

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"errors"
	"repro/internal/core"
	"repro/internal/dbl"
	"repro/internal/queue"
	"repro/internal/rollup"
	"repro/internal/winstore"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the query golden files")

var base = time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)

// goldenStore fills a store with a fixed three-window shape: the full
// category alphabet, an uncorrelated row, a same-interval partial (so
// queries exercise the merge path), and traffic heavy enough on one service
// that top-N ordering is deterministic.
func goldenStore(t *testing.T) *winstore.Store {
	t.Helper()
	s, err := winstore.Open(winstore.Config{Dir: t.TempDir(), PartDur: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	windows := []rollup.Window{
		{
			Start: base,
			Dur:   time.Minute,
			Rows: []rollup.Row{
				{Key: rollup.Key{Service: "", ASN: 0, Category: dbl.Benign}, Counters: rollup.Counters{Bytes: 512, Packets: 8, Flows: 2}},
				{Key: rollup.Key{Service: "cdn.example", ASN: 64500, Category: dbl.Benign}, Counters: rollup.Counters{Bytes: 9000, Packets: 90, Flows: 9}},
				{Key: rollup.Key{Service: "cnc.bad.example", ASN: 64501, Category: dbl.Botnet}, Counters: rollup.Counters{Bytes: 700, Packets: 7, Flows: 1}},
				{Key: rollup.Key{Service: "video.example", ASN: 64502, Category: dbl.Benign}, Counters: rollup.Counters{Bytes: 4000, Packets: 40, Flows: 4}},
			},
		},
		// A late partial of the same interval: per-key sums must merge.
		{
			Start: base,
			Dur:   time.Minute,
			Rows: []rollup.Row{
				{Key: rollup.Key{Service: "cdn.example", ASN: 64500, Category: dbl.Benign}, Counters: rollup.Counters{Bytes: 1000, Packets: 10, Flows: 1}},
			},
		},
		{
			Start: base.Add(time.Minute),
			Dur:   time.Minute,
			Rows: []rollup.Row{
				{Key: rollup.Key{Service: "drop.example", ASN: 64500, Category: dbl.Malware}, Counters: rollup.Counters{Bytes: 66, Packets: 1, Flows: 1}},
				{Key: rollup.Key{Service: "hook.example", ASN: 64503, Category: dbl.Phish}, Counters: rollup.Counters{Bytes: 33, Packets: 1, Flows: 1}},
				{Key: rollup.Key{Service: "video.example", ASN: 64502, Category: dbl.Benign}, Counters: rollup.Counters{Bytes: 2000, Packets: 20, Flows: 2}},
			},
		},
	}
	if err := s.Add(windows); err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T, store *winstore.Store, opts ...Option) *Server {
	t.Helper()
	srv, err := New(store, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func get(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec, rec.Body.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestGoldenQueryResponses pins the wire shape of every /query/* endpoint
// byte for byte: canonical sort, top-N + OTHER aggregation, step bucketing,
// and the NULL service spelling.
func TestGoldenQueryResponses(t *testing.T) {
	srv := newTestServer(t, goldenStore(t))
	rangeQ := fmt.Sprintf("from=%d&to=%d", base.Unix(), base.Add(2*time.Minute).Unix())
	cases := []struct {
		golden, url string
	}{
		{"services.golden.json", "/query/services?" + rangeQ + "&step=60"},
		{"services_top.golden.json", "/query/services?" + rangeQ + "&step=60&top=2"},
		{"asns.golden.json", "/query/asns?" + rangeQ + "&step=60"},
		{"categories.golden.json", "/query/categories?" + rangeQ},
	}
	for _, tc := range cases {
		rec, body := get(t, srv.Handler(), tc.url)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.url, rec.Code, body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", tc.url, ct)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("%s: Cache-Control %q", tc.url, cc)
		}
		checkGolden(t, tc.golden, body)
	}
	// Health from a fresh server, so the cache counters in the golden do
	// not depend on how many queries ran above.
	rec, body := get(t, newTestServer(t, goldenStore(t)).Handler(), "/query/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("/query/health: status %d: %s", rec.Code, body)
	}
	checkGolden(t, "health.golden.json", body)
}

func TestQueryDefaultsToBounds(t *testing.T) {
	srv := newTestServer(t, goldenStore(t))
	rec, body := get(t, srv.Handler(), "/query/services")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.From != base.Unix() || resp.To != base.Add(2*time.Minute).Unix() {
		t.Fatalf("defaulted range %d..%d", resp.From, resp.To)
	}
	if len(resp.Buckets) != 1 {
		t.Fatalf("%d buckets for stepless query", len(resp.Buckets))
	}
}

func TestQueryParamValidation(t *testing.T) {
	srv := newTestServer(t, goldenStore(t))
	for _, url := range []string{
		"/query/services?from=bogus",
		"/query/services?to=bogus",
		"/query/services?from=100&to=50",
		"/query/services?step=0.5s",
		"/query/services?step=bogus",
		"/query/services?top=0",
		"/query/services?top=-1",
		"/query/services?top=x",
	} {
		rec, _ := get(t, srv.Handler(), url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/services", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", rec.Code)
	}
}

// TestQueryCacheInvalidation proves the read path caches and that a store
// mutation in the cached range drops exactly that entry.
func TestQueryCacheInvalidation(t *testing.T) {
	store := goldenStore(t)
	srv := newTestServer(t, store, WithCache(8))
	url := fmt.Sprintf("/query/services?from=%d&to=%d", base.Unix(), base.Add(2*time.Minute).Unix())
	_, first := get(t, srv.Handler(), url)
	_, second := get(t, srv.Handler(), url)
	if !bytes.Equal(first, second) {
		t.Fatal("cached response diverges")
	}
	st := srv.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats after repeat: %+v", st)
	}

	// A sealed window landing in the range invalidates the entry and the
	// next response includes the new traffic.
	late := rollup.Window{Start: base, Dur: time.Minute, Rows: []rollup.Row{
		{Key: rollup.Key{Service: "cdn.example", ASN: 64500, Category: dbl.Benign}, Counters: rollup.Counters{Bytes: 5, Packets: 1, Flows: 1}},
	}}
	if err := store.Add([]rollup.Window{late}); err != nil {
		t.Fatal(err)
	}
	st = srv.CacheStats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("cache stats after invalidation: %+v", st)
	}
	_, third := get(t, srv.Handler(), url)
	if bytes.Equal(first, third) {
		t.Fatal("stale body served after invalidation")
	}
	var resp queryResponse
	if err := json.Unmarshal(third, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Buckets[0].Series[0].Key != "cdn.example" || resp.Buckets[0].Series[0].Bytes != 10005 {
		t.Fatalf("post-invalidation head: %+v", resp.Buckets[0].Series[0])
	}

	// A mutation outside every cached range leaves entries alone.
	_, _ = get(t, srv.Handler(), url)
	far := rollup.Window{Start: base.Add(24 * time.Hour), Dur: time.Minute, Rows: []rollup.Row{
		{Key: rollup.Key{Service: "x.example"}, Counters: rollup.Counters{Bytes: 1, Packets: 1, Flows: 1}},
	}}
	if err := store.Add([]rollup.Window{far}); err != nil {
		t.Fatal(err)
	}
	if st := srv.CacheStats(); st.Entries != 1 {
		t.Fatalf("unrelated mutation dropped cache: %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * time.Hour) }
	c.put("a", []byte("A"), at(0), at(1))
	c.put("b", []byte("B"), at(1), at(2))
	if c.get("a") == nil { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"), at(2), at(3))
	if c.get("b") != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Fatal("recent entries evicted")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	pipeline := func() core.Stats {
		return core.Stats{Flows: 100, Correlated: 81, FlowBytes: 1000, CorrelatedBytes: 817}
	}
	srv := newTestServer(t, goldenStore(t), WithPipelineStats(pipeline))
	rec, body := get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	for _, want := range []string{
		"# TYPE flowdns_flows_total counter\nflowdns_flows_total 100\n",
		"flowdns_correlation_rate 0.817\n",
		"flowdns_store_partitions 1\n",
		"flowdns_store_windows_persisted_total 3\n",
		"flowdns_query_cache_misses_total 0\n",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// TestRollupsMountAndDrain checks the shared-mux /rollups endpoint and its
// drain behavior: 200 + no-store while live, 503 once draining.
func TestRollupsMountAndDrain(t *testing.T) {
	draining := false
	roll := rollup.New(time.Minute, 2)
	srv := newTestServer(t, goldenStore(t),
		WithRollups(roll), WithDraining(func() bool { return draining }))
	rec, _ := get(t, srv.Handler(), "/rollups")
	if rec.Code != http.StatusOK {
		t.Fatalf("live /rollups: %d", rec.Code)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("live /rollups Cache-Control %q", cc)
	}
	draining = true
	rec, _ = get(t, srv.Handler(), "/rollups")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /rollups: %d", rec.Code)
	}
	rec, body := get(t, srv.Handler(), "/query/health")
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || h.Status != "draining" {
		t.Fatalf("health while draining: %d %q", rec.Code, h.Status)
	}
}

// TestServeLifecycle runs the real listener path: Serve answers over TCP
// and shuts down cleanly on context cancel.
func TestServeLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, goldenStore(t), WithListener(ln))
	if srv.Name() != "queryapi" {
		t.Fatalf("Name = %q", srv.Name())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	resp, err := http.Get("http://" + srv.Addr() + "/query/health")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health over TCP: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

// TestMetricsSampledCounters checks that the sampler's deliberate shed shows
// up per queue in /metrics alongside the loss-rate gauges, so overload
// degradation is visible where operators already look for drops.
func TestMetricsSampledCounters(t *testing.T) {
	pipeline := func() core.Stats {
		return core.Stats{
			FillQueue: queue.Stats{Enqueued: 70, Dropped: 10, Sampled: 20},
			LookQueue: queue.Stats{Enqueued: 95, Sampled: 5},
		}
	}
	srv := newTestServer(t, goldenStore(t), WithPipelineStats(pipeline))
	_, body := get(t, srv.Handler(), "/metrics")
	for _, want := range []string{
		`flowdns_queue_sampled_total{queue="fill"} 20`,
		`flowdns_queue_sampled_total{queue="look"} 5`,
		`flowdns_queue_dropped_total{queue="fill"} 10`,
		// (10+20+5) lost / (100+100) offered
		"flowdns_loss_rate 0.175\n",
		// (20+5) sampled / 200 offered
		"flowdns_sampled_rate 0.125\n",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
	if bytes.Contains(body, []byte(`queue="write"`)) {
		t.Errorf("write queue series still exported:\n%s", body)
	}
}

// TestHealthLossBlock checks the /query/health loss accounting: per-queue
// offered/dropped/sampled plus the aggregate rates, present only when
// pipeline stats are wired.
func TestHealthLossBlock(t *testing.T) {
	pipeline := func() core.Stats {
		return core.Stats{
			FillQueue: queue.Stats{Enqueued: 70, Dropped: 10, Sampled: 20},
			LookQueue: queue.Stats{Enqueued: 50, Sampled: 50},
		}
	}
	srv := newTestServer(t, goldenStore(t), WithPipelineStats(pipeline))
	_, body := get(t, srv.Handler(), "/query/health")
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Loss == nil {
		t.Fatalf("no loss block in %s", body)
	}
	if h.Loss.Fill != (lossQueue{Offered: 100, Dropped: 10, Sampled: 20}) {
		t.Fatalf("fill loss = %+v", h.Loss.Fill)
	}
	if h.Loss.Look != (lossQueue{Offered: 100, Sampled: 50}) {
		t.Fatalf("look loss = %+v", h.Loss.Look)
	}
	if want := 80.0 / 200.0; h.Loss.LossRate != want {
		t.Fatalf("loss_rate = %v, want %v", h.Loss.LossRate, want)
	}
	if want := 70.0 / 200.0; h.Loss.SampledRate != want {
		t.Fatalf("sampled_rate = %v, want %v", h.Loss.SampledRate, want)
	}

	// Without pipeline stats the block is omitted entirely.
	_, body = get(t, newTestServer(t, goldenStore(t)).Handler(), "/query/health")
	if bytes.Contains(body, []byte(`"loss"`)) {
		t.Fatalf("loss block present without pipeline stats: %s", body)
	}
}

// TestAdminReload checks the hot-reload endpoint: POST triggers the wired
// reload exactly once, GET is rejected, a failing reload surfaces as 500,
// and the route is absent when not wired.
func TestAdminReload(t *testing.T) {
	calls := 0
	var fail error
	srv := newTestServer(t, goldenStore(t), WithReload(func() error {
		calls++
		return fail
	}))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusOK || calls != 1 {
		t.Fatalf("POST reload: status %d calls %d", rec.Code, calls)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("reloaded")) {
		t.Fatalf("reload body = %s", rec.Body.Bytes())
	}

	rec, _ = get(t, srv.Handler(), "/admin/reload")
	if rec.Code != http.StatusMethodNotAllowed || calls != 1 {
		t.Fatalf("GET reload: status %d calls %d", rec.Code, calls)
	}

	fail = errors.New("bgp table: no such file")
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failing reload: status %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("no such file")) {
		t.Fatalf("failing reload body = %s", rec.Body.Bytes())
	}

	// Not wired: the route must not exist.
	bare := newTestServer(t, goldenStore(t))
	rec = httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unwired reload: status %d", rec.Code)
	}
}
