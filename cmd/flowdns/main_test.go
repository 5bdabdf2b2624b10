package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
)

// parse runs the daemon's flag binding over args, as main does.
func parse(t *testing.T, args ...string) (*cli, error) {
	t.Helper()
	fs := flag.NewFlagSet("flowdns", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := bindFlags(fs)
	return c, fs.Parse(args)
}

// resolveArgs is parse followed by resolve.
func resolveArgs(t *testing.T, args ...string) (*config.File, error) {
	t.Helper()
	c, err := parse(t, args...)
	if err != nil {
		return nil, err
	}
	return c.resolve()
}

// flagDefaults is the configuration document a bare `flowdns` runs from,
// written out by hand: the flag defaults -h prints, under their JSON keys.
const flagDefaults = `{
	"dns_streams":  [{"listen": ":5353"}],
	"flow_streams": [{"listen": ":2055"}],
	"output":       {"path": "-", "sink": "tsv"},
	"correlator":   {"variant": "Main", "write_workers": 2, "write_batch_size": 256},
	"rollup":       {"path": "rollups.tsv", "format": "tsv"}
}`

// withKeys returns flagDefaults with each dotted JSON path in set replaced.
func withKeys(t *testing.T, set map[string]any) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal([]byte(flagDefaults), &doc); err != nil {
		t.Fatal(err)
	}
	for path, v := range set {
		keys := strings.Split(path, ".")
		m := doc
		for _, k := range keys[:len(keys)-1] {
			sub, ok := m[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
				m[k] = sub
			}
			m = sub
		}
		m[keys[len(keys)-1]] = v
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// processFlags have no JSON key: they select or describe the process, not
// its configuration.
var processFlags = []string{"config", "example-config", "stats-interval", "faults"}

// flagRows pairs every settings flag with the JSON keys it is a view onto.
// args may carry companion flags the flag under test is only valid beside;
// set lists the equivalent keys for all of them.
var flagRows = []struct {
	flag string
	args []string
	set  map[string]any
}{
	{flag: "(no flags)"},
	{"dns-listen", []string{"-dns-listen", ":6001, :6002"},
		map[string]any{"dns_streams": []any{map[string]any{"listen": ":6001"}, map[string]any{"listen": ":6002"}}}},
	{"netflow-listen", []string{"-netflow-listen", ":7001"},
		map[string]any{"flow_streams": []any{map[string]any{"listen": ":7001"}}}},
	{"out", []string{"-out", "corr.tsv"}, map[string]any{"output.path": "corr.tsv"}},
	{"sink", []string{"-sink", "json"}, map[string]any{"output.sink": "json"}},
	{"sink-url", []string{"-sink", "influx", "-sink-url", "http://i:8086/write"},
		map[string]any{"output.sink": "influx", "output.url": "http://i:8086/write"}},
	{"measurement", []string{"-measurement", "m"}, map[string]any{"output.measurement": "m"}},
	{"skip-misses", []string{"-skip-misses"}, map[string]any{"output.skip_misses": true}},
	{"retry-sink", []string{"-retry-sink"}, map[string]any{"output.retry": map[string]any{}}},
	{"retry-spill", []string{"-retry-sink", "-retry-spill", "s.jsonl"},
		map[string]any{"output.retry": map[string]any{"spill_path": "s.jsonl"}}},
	{"variant", []string{"-variant", "NoSplit"}, map[string]any{"correlator.variant": "NoSplit"}},
	{"lanes", []string{"-lanes", "8"}, map[string]any{"correlator.lanes": 8}},
	{"write-workers", []string{"-write-workers", "3"}, map[string]any{"correlator.write_workers": 3}},
	{"batch-size", []string{"-batch-size", "64"}, map[string]any{"correlator.write_batch_size": 64}},
	{"ingest-batch", []string{"-ingest-batch", "1"}, map[string]any{"correlator.ingest_batch": 1}},
	{"flush-interval", []string{"-flush-interval", "20ms"}, map[string]any{"correlator.write_flush_ms": 20}},
	{"snapshot", []string{"-snapshot", "s.snap"}, map[string]any{"correlator.snapshot_path": "s.snap"}},
	{"snapshot-every", []string{"-snapshot", "s.snap", "-snapshot-every", "90s"},
		map[string]any{"correlator.snapshot_path": "s.snap", "correlator.snapshot_every_seconds": 90}},
	{"sample-max-shed", []string{"-sample-max-shed", "0.5"}, map[string]any{"correlator.sample_max_shed": 0.5}},
	{"sample-low-water", []string{"-sample-max-shed", "0.5", "-sample-low-water", "0.25"},
		map[string]any{"correlator.sample_max_shed": 0.5, "correlator.sample_low_water": 0.25}},
	{"sample-high-water", []string{"-sample-max-shed", "0.5", "-sample-high-water", "0.75"},
		map[string]any{"correlator.sample_max_shed": 0.5, "correlator.sample_high_water": 0.75}},
	{"dns-idle-timeout", []string{"-dns-idle-timeout", "45s"}, map[string]any{"correlator.dns_idle_timeout_seconds": 45}},
	{"rollup", []string{"-rollup"}, map[string]any{"rollup.enabled": true}},
	{"window", []string{"-window", "10s"}, map[string]any{"rollup.window_seconds": 10}},
	{"rollup-out", []string{"-rollup-out", "-"}, map[string]any{"rollup.path": "-"}},
	{"rollup-format", []string{"-rollup-format", "json"}, map[string]any{"rollup.format": "json"}},
	{"rollup-http", []string{"-rollup-http", ":8080"}, map[string]any{"rollup.http": ":8080"}},
	{"bgp-table", []string{"-bgp-table", "bgp.txt"}, map[string]any{"rollup.bgp_table": "bgp.txt"}},
	{"dbl", []string{"-dbl", "dbl.txt"}, map[string]any{"rollup.blocklist": "dbl.txt"}},
	{"fault-admin", []string{"-fault-admin"}, map[string]any{"fault_admin": true}},
	{"query-addr", []string{"-rollup", "-store-dir", "w", "-query-addr", ":8081"},
		map[string]any{"rollup.enabled": true, "query.store_dir": "w", "query.listen": ":8081"}},
	{"store-dir", []string{"-rollup", "-store-dir", "w"}, map[string]any{"rollup.enabled": true, "query.store_dir": "w"}},
	{"retention", []string{"-retention", "24h"}, map[string]any{"query.retention_seconds": 86400}},
	{"compact-after", []string{"-compact-after", "-1s"}, map[string]any{"query.compact_after_seconds": -1}},
	{"role", []string{"-role", "worker"}, map[string]any{"cluster.role": "worker"}},
	{"forward-to", []string{"-role", "router", "-forward-to", "w1=h1:3055/h1:6363,w2=h2:3055/h2:6363"},
		map[string]any{"cluster.role": "router", "cluster.nodes": []any{
			map[string]any{"name": "w1", "flow": "h1:3055", "dns": "h1:6363"},
			map[string]any{"name": "w2", "flow": "h2:3055", "dns": "h2:6363"}}}},
	{"node", []string{"-role", "worker", "-node", "w1"}, map[string]any{"cluster.role": "worker", "cluster.node": "w1"}},
	{"vnodes", []string{"-role", "worker", "-vnodes", "16"}, map[string]any{"cluster.role": "worker", "cluster.vnodes": 16}},
}

// TestFlagsAreAViewOntoTheFile resolves `flowdns <flag> <v>` and the
// equivalent JSON document for every settings flag and requires the same
// config.File and the same core.Config from both.
func TestFlagsAreAViewOntoTheFile(t *testing.T) {
	covered := map[string]bool{}
	for _, name := range processFlags {
		covered[name] = true
	}
	for _, row := range flagRows {
		covered[row.flag] = true
		fromFlags, err := resolveArgs(t, row.args...)
		if err != nil {
			t.Errorf("-%s: flags rejected: %v", row.flag, err)
			continue
		}
		fromJSON, err := config.Parse(withKeys(t, row.set))
		if err != nil {
			t.Errorf("-%s: JSON rejected: %v", row.flag, err)
			continue
		}
		if !reflect.DeepEqual(fromFlags, fromJSON) {
			t.Errorf("-%s: config.File differs\nflags %+v\njson  %+v", row.flag, fromFlags, fromJSON)
		}
		a, errA := fromFlags.CoreConfig()
		b, errB := fromJSON.CoreConfig()
		if errA != nil || errB != nil || a != b {
			t.Errorf("-%s: core.Config differs (%v, %v)\nflags %+v\njson  %+v", row.flag, errA, errB, a, b)
		}
	}
	// A flag added without a row here has no proven JSON twin.
	fs := flag.NewFlagSet("flowdns", flag.ContinueOnError)
	bindFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("flag -%s has no row in flagRows and is not a process flag", f.Name)
		}
	})
}

// TestMisuseRejectedByTheSharedValidate: each misuse the daemon refuses is
// refused by config.File.Validate, so the same mistake written as JSON
// fails with the same error. (-retry-spill without -retry-sink is the one
// exception: the File's retry block is a pointer, so the mistake cannot be
// written as JSON at all.)
func TestMisuseRejectedByTheSharedValidate(t *testing.T) {
	cases := []struct {
		args []string
		set  map[string]any // nil: not expressible as JSON
		want string
	}{
		{[]string{"-snapshot-every", "1m"}, map[string]any{"correlator.snapshot_every_seconds": 60}, "snapshot_every_seconds set without snapshot_path"},
		{[]string{"-snapshot", "s", "-snapshot-every", "-1s"},
			map[string]any{"correlator.snapshot_path": "s", "correlator.snapshot_every_seconds": -1}, "negative snapshot_every_seconds"},
		{[]string{"-retention", "-1s"}, map[string]any{"query.retention_seconds": -1}, "negative retention_seconds"},
		{[]string{"-query-addr", ":8081"}, map[string]any{"query.listen": ":8081"}, "listen without store_dir"},
		{[]string{"-store-dir", "w"}, map[string]any{"query.store_dir": "w"}, "store_dir requires rollup.enabled"},
		{[]string{"-role", "sidecar"}, map[string]any{"cluster.role": "sidecar"}, "unknown role"},
		{[]string{"-role", "router"}, map[string]any{"cluster.role": "router"}, "router role needs nodes"},
		{[]string{"-forward-to", "w1=a:1/b:2"},
			map[string]any{"cluster.nodes": []any{map[string]any{"name": "w1", "flow": "a:1", "dns": "b:2"}}}, "require a role"},
		{[]string{"-node", "w1"}, map[string]any{"cluster.node": "w1"}, "require a role"},
		{[]string{"-role", "worker", "-vnodes", "-1"}, map[string]any{"cluster.role": "worker", "cluster.vnodes": -1}, "negative vnodes"},
		{[]string{"-sample-max-shed", "1.5"}, map[string]any{"correlator.sample_max_shed": 1.5}, "outside [0,1]"},
		{[]string{"-sample-low-water", "0.3"}, map[string]any{"correlator.sample_low_water": 0.3}, "watermarks set without sample_max_shed"},
		{[]string{"-sample-max-shed", "0.5", "-sample-high-water", "1.5"},
			map[string]any{"correlator.sample_max_shed": 0.5, "correlator.sample_high_water": 1.5}, "watermarks must lie in [0,1]"},
		{[]string{"-ingest-batch", "-1"}, map[string]any{"correlator.ingest_batch": -1}, "negative ingest_batch"},
		{[]string{"-sink-url", "http://i:8086/write"}, map[string]any{"output.url": "http://i:8086/write"}, "only supported by the \"influx\" sink"},
		{[]string{"-sink", "kafka"}, map[string]any{"output.sink": "kafka"}, "unknown sink"},
		{[]string{"-dns-idle-timeout", "-1s"}, map[string]any{"correlator.dns_idle_timeout_seconds": -1}, "negative dns_idle_timeout_seconds"},
		{[]string{"-window", "-1s"}, map[string]any{"rollup.window_seconds": -1}, "negative window_seconds"},
		{[]string{"-variant", "Bogus"}, map[string]any{"correlator.variant": "Bogus"}, "unknown variant"},
		{[]string{"-dns-listen", "", "-netflow-listen", ""},
			map[string]any{"dns_streams": []any{}, "flow_streams": []any{}}, "no input streams"},
		{[]string{"-retry-spill", "s.jsonl"}, nil, "-retry-spill set without -retry-sink"},
	}
	for _, c := range cases {
		_, err := resolveArgs(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want containing %q", c.args, err, c.want)
			continue
		}
		if c.set == nil {
			continue
		}
		if _, jerr := config.Parse(withKeys(t, c.set)); jerr == nil || jerr.Error() != err.Error() {
			t.Errorf("%v: flags said %q, the equivalent JSON said %v", c.args, err, jerr)
		}
	}
}

// The seconds/ms fields take a duration on the command line; a fractional
// request rounds away from zero, never to the 0 that means "default".
func TestUnitFlagRounding(t *testing.T) {
	f, err := resolveArgs(t, "-window", "1500ms", "-flush-interval", "500us", "-compact-after", "-500ms", "-retention", "1h")
	if err != nil {
		t.Fatal(err)
	}
	if f.Rollup.WindowSeconds != 2 || f.Correlator.WriteFlushMS != 1 ||
		f.Query.CompactAfterSeconds != -1 || f.Query.RetentionSeconds != 3600 {
		t.Fatalf("window=%d flush=%d compact=%d retention=%d, want 2 1 -1 3600",
			f.Rollup.WindowSeconds, f.Correlator.WriteFlushMS, f.Query.CompactAfterSeconds, f.Query.RetentionSeconds)
	}
	if _, err := parse(t, "-window", "soon"); err == nil {
		t.Fatal("malformed duration accepted")
	}
}

// With -config the file is the configuration: settings flags do not leak
// into it, except the documented -out fallback for a file naming no path.
func TestConfigFileOverridesFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flowdns.json")
	doc := `{"flow_streams":[{"listen":":9001"}],"correlator":{"lanes":2}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := resolveArgs(t, "-config", path, "-lanes", "8", "-rollup", "-out", "flag.tsv")
	if err != nil {
		t.Fatal(err)
	}
	want, err := config.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want.Output.Path = "flag.tsv"
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved %+v, want %+v", got, want)
	}
	if _, err := resolveArgs(t, "-config", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing config file accepted")
	}
}
