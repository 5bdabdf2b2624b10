package config

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestParseMinimal(t *testing.T) {
	f, err := Parse([]byte(`{"dns_streams":[{"listen":":5353"}],"flow_streams":[{"listen":":2055"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	norm := core.New(cfg).Config()
	if norm.NumSplit != core.DefaultNumSplit || norm.Key != core.LookupSource {
		t.Fatalf("defaults not applied: %+v", norm)
	}
}

func TestParseFull(t *testing.T) {
	doc := `{
		"dns_streams":[{"listen":":5353","format":"dns"}],
		"flow_streams":[{"listen":":2055","format":"netflow"},{"listen":":4739","format":"ipfix"}],
		"output":{"path":"out.tsv","skip_misses":true},
		"correlator":{
			"variant":"NoRotation","lookup_key":"both","num_split":4,
			"lanes":2,"write_workers":1,
			"a_clear_up_seconds":1800,"c_clear_up_seconds":3600,
			"cname_chain_limit":4,"queue_capacity":1024
		}
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.DisableRotation || cfg.Key != core.LookupBoth || cfg.NumSplit != 4 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.AClearUpInterval != 1800*time.Second || cfg.CClearUpInterval != 3600*time.Second {
		t.Fatalf("intervals = %v/%v", cfg.AClearUpInterval, cfg.CClearUpInterval)
	}
	if cfg.CNAMEChainLimit != 4 || cfg.FillQueueCap != 1024 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Lanes != 2 || cfg.WriteWorkers != 1 {
		t.Fatalf("lanes = %d, write workers = %d, want 2/1", cfg.Lanes, cfg.WriteWorkers)
	}
	if !f.Output.SkipMisses || f.Output.Path != "out.tsv" {
		t.Fatalf("output = %+v", f.Output)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		doc  string
		want string
	}{
		{`not json`, "config:"},
		{`{}`, "no input streams"},
		{`{"dns_streams":[{"listen":""}]}`, "missing listen"},
		{`{"dns_streams":[{"listen":":1","format":"ipfix"}]}`, "unsupported format"},
		{`{"flow_streams":[{"listen":":1","format":"weird"}]}`, "unsupported format"},
		{`{"dns_streams":[{"listen":":1"}],"correlator":{"variant":"Bogus"}}`, "unknown variant"},
		{`{"dns_streams":[{"listen":":1"}],"correlator":{"lookup_key":"sideways"}}`, "unknown lookup_key"},
		{`{"dns_streams":[{"listen":":1"}],"output":{"sink":"kafka"}}`, "unknown sink"},
		{`{"dns_streams":[{"listen":":1"}],"output":{"sink":"multi"}}`, "implied"},
		{`{"dns_streams":[{"listen":":1"}],"output":{"sink":"counting","path":"x.tsv"}}`, "does not write to a file"},
		{`{"dns_streams":[{"listen":":1"}],"outputs":[{"sink":"bogus"}]}`, "outputs[0]"},
		{`{"dns_streams":[{"listen":":1"}],"query":{"listen":":8081","store_dir":"w"}}`, "requires rollup.enabled"},
		{`{"dns_streams":[{"listen":":1"}],"rollup":{"enabled":true},"query":{"listen":":8081"}}`, "listen without store_dir"},
		{`{"dns_streams":[{"listen":":1"}],"rollup":{"enabled":true},"query":{"store_dir":"w","part_seconds":-1}}`, "negative part_seconds"},
		{`{"dns_streams":[{"listen":":1"}],"rollup":{"enabled":true},"query":{"store_dir":"w","retention_seconds":-1}}`, "negative retention_seconds"},
		{`{"dns_streams":[{"listen":":1"}],"rollup":{"enabled":true},"query":{"store_dir":"w","cache_entries":-1}}`, "negative cache_entries"},
		// Sign checks do not depend on the section being switched on.
		{`{"dns_streams":[{"listen":":1"}],"query":{"retention_seconds":-1}}`, "negative retention_seconds"},
		{`{"dns_streams":[{"listen":":1"}],"rollup":{"window_seconds":-1}}`, "negative window_seconds"},
		{`{"dns_streams":[{"listen":":1"}],"cluster":{"role":"sidecar"}}`, "unknown role"},
		{`{"dns_streams":[{"listen":":1"}],"cluster":{"role":"router"}}`, "router role needs nodes"},
		{`{"dns_streams":[{"listen":":1"}],"cluster":{"node":"w1"}}`, "require a role"},
		{`{"dns_streams":[{"listen":":1"}],"cluster":{"nodes":[{"name":"w1","flow":":2","dns":":3"}]}}`, "require a role"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", c.doc, err, c.want)
		}
	}
}

// The worker-count settings removed when a lane became one FillUp+LookUp
// worker fail the parse, naming lanes, instead of being skipped silently.
func TestParseRejectsRemovedWorkerKeys(t *testing.T) {
	for _, key := range []string{"fill_lanes", "fillup_workers", "lookup_workers"} {
		doc := `{"dns_streams":[{"listen":":1"}],"correlator":{"lanes":4,"` + key + `":4}}`
		_, err := Parse([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), key) || !strings.Contains(err.Error(), "lanes") {
			t.Errorf("Parse with %s: err = %v, want one naming %s and lanes", key, err, key)
		}
	}
	// Zero is no escape: the key's presence is the mistake.
	if _, err := Parse([]byte(`{"dns_streams":[{"listen":":1"}],"correlator":{"fill_lanes":0}}`)); err == nil {
		t.Error("fill_lanes: 0 accepted")
	}
}

// One cluster file is shared by the router and every worker: a worker
// carrying the router's node list is valid.
func TestClusterFileSharedByRoles(t *testing.T) {
	for _, role := range []string{"router", "worker"} {
		doc := `{"dns_streams":[{"listen":":1"}],"cluster":{"role":"` + role + `","node":"w1",
			"nodes":[{"name":"w1","flow":":2","dns":":3"},{"name":"w2","flow":":4","dns":":5"}]}}`
		f, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("role %s: %v", role, err)
		}
		if len(f.Cluster.Nodes) != 2 || f.Cluster.Node != "w1" {
			t.Fatalf("role %s: cluster = %+v", role, f.Cluster)
		}
	}
}

func TestQueryConfig(t *testing.T) {
	doc := `{
		"dns_streams":[{"listen":":5353"}],
		"rollup":{"enabled":true},
		"query":{
			"listen":":8081",
			"store_dir":"winstore",
			"part_seconds":1800,
			"retention_seconds":86400,
			"compact_after_seconds":300,
			"cache_entries":64
		}
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	// The daemon wires the store and query server from the query section
	// itself; nothing is copied into core.Config.
	want := QueryConfig{Listen: ":8081", StoreDir: "winstore", PartSeconds: 1800,
		RetentionSeconds: 86400, CompactAfterSeconds: 300, CacheEntries: 64}
	if f.Query != want {
		t.Fatalf("query section = %+v, want %+v", f.Query, want)
	}

	// Store without server is valid (persist-only), and a negative
	// compact_after disables compaction rather than erroring.
	f2, err := Parse([]byte(`{
		"dns_streams":[{"listen":":5353"}],
		"rollup":{"enabled":true},
		"query":{"store_dir":"w","compact_after_seconds":-1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if f2.Query.Listen != "" || f2.Query.StoreDir != "w" || f2.Query.CompactAfterSeconds >= 0 {
		t.Fatalf("persist-only section: %+v", f2.Query)
	}
}

func TestLoadFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flowdns.json")
	data, err := json.MarshalIndent(Example(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.DNSStreams) != 2 || len(f.FlowStreams) != 2 {
		t.Fatalf("streams = %d/%d", len(f.DNSStreams), len(f.FlowStreams))
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestExampleIsValid(t *testing.T) {
	data, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("example config invalid: %v", err)
	}
}

func TestSinkAndBatchConfig(t *testing.T) {
	doc := `{
		"dns_streams":[{"listen":":5353"}],
		"output":{"path":"out.jsonl","sink":"json","skip_misses":true},
		"outputs":[{"sink":"counting"}],
		"correlator":{"write_batch_size":512,"write_flush_ms":10}
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WriteBatchSize != 512 || cfg.WriteFlushInterval != 10*time.Millisecond {
		t.Fatalf("batch tuning = %d/%v", cfg.WriteBatchSize, cfg.WriteFlushInterval)
	}
	s, err := f.Output.NewSink(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if js, ok := s.(*core.JSONSink); !ok || !js.SkipMisses {
		t.Fatalf("sink = %T", s)
	}
	if len(f.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(f.Outputs))
	}
	if s, err := f.Outputs[0].NewSink(nil); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*core.CountingSink); !ok {
		t.Fatalf("extra sink = %T", s)
	}
}

func TestVariantMapping(t *testing.T) {
	for _, v := range core.AllVariants() {
		doc := `{"dns_streams":[{"listen":":1"}],"correlator":{"variant":"` + string(v) + `"}}`
		f, err := Parse([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if _, err := f.CoreConfig(); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
}

func TestRollupConfig(t *testing.T) {
	doc := `{
		"dns_streams":[{"listen":":5353"}],
		"output":{"path":"out.tsv"},
		"rollup":{
			"enabled":true,"window_seconds":300,"shards":4,
			"path":"rollups.jsonl","format":"json",
			"bgp_table":"table.txt","blocklist":"dbl.txt","http":":8081"
		}
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Rollup.Enabled || f.Rollup.Window() != 5*time.Minute || f.Rollup.Shards != 4 {
		t.Fatalf("rollup section = %+v", f.Rollup)
	}
	if f.Rollup.Path != "rollups.jsonl" || f.Rollup.Format != "json" || f.Rollup.HTTP != ":8081" {
		t.Fatalf("rollup outputs = %+v", f.Rollup)
	}
	// Default window when unset.
	if (RollupConfig{}).Window() != time.Minute {
		t.Fatalf("default window = %v", RollupConfig{}.Window())
	}
	// Disabled sections skip validation entirely.
	if _, err := Parse([]byte(`{
		"dns_streams":[{"listen":":5353"}],
		"rollup":{"enabled":false,"format":"yaml"}
	}`)); err != nil {
		t.Fatalf("disabled rollup validated: %v", err)
	}
}

func TestRollupConfigRejections(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`{"dns_streams":[{"listen":":5353"}],"rollup":{"enabled":true,"format":"yaml"}}`,
			"unknown export format"},
		{`{"dns_streams":[{"listen":":5353"}],"rollup":{"enabled":true,"window_seconds":-1}}`,
			"negative window_seconds"},
		{`{"dns_streams":[{"listen":":5353"}],"rollup":{"enabled":true,"shards":-2}}`,
			"negative shards"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", c.doc, err, c.want)
		}
	}
}

// TestRollupSinkRegistered checks the registry integration end to end from
// the config layer: importing the rollup package (as the daemon does)
// makes "rollup" a legal sink name in outputs.
func TestRollupSinkRegistered(t *testing.T) {
	doc := `{
		"dns_streams":[{"listen":":5353"}],
		"output":{"path":"rollups.tsv","sink":"rollup"}
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Output.NeedsWriter() {
		t.Fatal("rollup sink should need a writer")
	}
	s, err := f.Output.NewSink(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotConfig covers the warm-restart checkpoint keys: mapping into
// core.Config, the default cadence, and the two rejection cases.
func TestSnapshotConfig(t *testing.T) {
	doc := `{
		"dns_streams":[{"listen":":5353"}],
		"correlator":{"snapshot_path":"/var/lib/flowdns/store.snapshot","snapshot_every_seconds":90}
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SnapshotPath != "/var/lib/flowdns/store.snapshot" {
		t.Fatalf("SnapshotPath = %q", cfg.SnapshotPath)
	}
	if cfg.SnapshotEvery != 90*time.Second {
		t.Fatalf("SnapshotEvery = %v", cfg.SnapshotEvery)
	}

	// Path without cadence: core's default applies at normalization; the
	// config layer leaves the zero value alone.
	doc = `{
		"dns_streams":[{"listen":":5353"}],
		"correlator":{"snapshot_path":"store.snapshot"}
	}`
	f, err = Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SnapshotPath != "store.snapshot" || cfg.SnapshotEvery != 0 {
		t.Fatalf("cfg = %+v", cfg)
	}

	for doc, want := range map[string]string{
		`{"dns_streams":[{"listen":":5353"}],"correlator":{"snapshot_path":"s","snapshot_every_seconds":-1}}`: "negative snapshot_every_seconds",
		`{"dns_streams":[{"listen":":5353"}],"correlator":{"snapshot_every_seconds":60}}`:                     "snapshot_every_seconds set without snapshot_path",
	} {
		if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%s) err = %v, want containing %q", doc, err, want)
		}
	}
}

// TestResilienceConfig covers the PR-9 robustness knobs: the faults map,
// the per-output retry block, and the DNS idle timeout.
func TestResilienceConfig(t *testing.T) {
	doc := `{
		"dns_streams":[{"listen":":5353"}],
		"faults":{"core.sink.write":"2*error(chaos)"},
		"fault_admin":true,
		"output":{"sink":"counting","retry":{
			"max_retries":5,"backoff_ms":50,"timeout_ms":2000,
			"mem_limit_records":128,"spill_path":"spill.jsonl","spill_limit_bytes":4096
		}},
		"correlator":{"dns_idle_timeout_seconds":45}
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !f.FaultAdmin || f.Faults["core.sink.write"] != "2*error(chaos)" {
		t.Fatalf("faults = %+v admin = %v", f.Faults, f.FaultAdmin)
	}
	rc := f.Output.Retry
	if rc == nil {
		t.Fatal("retry block lost in parse")
	}
	got := rc.Core()
	want := core.RetryConfig{
		MaxRetries: 5, Backoff: 50 * time.Millisecond, Timeout: 2 * time.Second,
		MemLimit: 128, SpillPath: "spill.jsonl", SpillLimit: 4096,
	}
	if got != want {
		t.Fatalf("Core() = %+v, want %+v", got, want)
	}
	if f.Correlator.DNSIdleTimeoutSeconds != 45 {
		t.Fatalf("dns_idle_timeout_seconds = %d", f.Correlator.DNSIdleTimeoutSeconds)
	}

	// Rejections: malformed fault spec, empty point name, negative retry
	// fields, negative idle timeout.
	bad := []struct {
		doc  string
		want string
	}{
		{`{"dns_streams":[{"listen":":1"}],"faults":{"core.sink.write":"wibble!"}}`, "unknown action"},
		{`{"dns_streams":[{"listen":":1"}],"faults":{"":"error"}}`, "empty failpoint name"},
		{`{"dns_streams":[{"listen":":1"}],"output":{"retry":{"backoff_ms":-1}}}`, "negative retry"},
		{`{"dns_streams":[{"listen":":1"}],"outputs":[{"sink":"counting","retry":{"spill_limit_bytes":-1}}]}`, "negative retry"},
		{`{"dns_streams":[{"listen":":1"}],"correlator":{"dns_idle_timeout_seconds":-3}}`, "dns_idle_timeout_seconds"},
	}
	for _, c := range bad {
		if _, err := Parse([]byte(c.doc)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%s) err = %v, want containing %q", c.doc, err, c.want)
		}
	}
}
