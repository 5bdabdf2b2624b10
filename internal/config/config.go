// Package config loads the FlowDNS daemon configuration file.
//
// The paper notes that "the system is not bound to NetFlow data and can be
// adapted to use other data formats containing IP addresses and timestamps
// in a configuration file" (§3). This package is that file: a JSON document
// describing the input streams (addresses and formats), the correlator
// tuning (variant, workers, intervals, lookup key), and the output.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rollup"
	"repro/internal/stream"

	// Register the "influx" sink so config validation and the daemon both
	// see it in the registry.
	_ "repro/internal/influxsink"
)

// File is the top-level configuration document, and the daemon's single
// resolved form of its settings: the command-line flags of cmd/flowdns bind
// onto a File too, so a flag and its JSON key are the same field, checked
// by the same Validate.
type File struct {
	// DNSStreams lists TCP listen addresses receiving framed DNS responses.
	DNSStreams []StreamConfig `json:"dns_streams"`
	// FlowStreams lists UDP listen addresses receiving flow exports.
	FlowStreams []StreamConfig `json:"flow_streams"`
	// Output configures the correlated-flow sink.
	Output OutputConfig `json:"output"`
	// Outputs optionally lists additional sinks; when present the daemon
	// fans out through a MultiSink (Output plus every entry). See
	// AllOutputs.
	Outputs []OutputConfig `json:"outputs,omitempty"`
	// Correlator tunes the core pipeline.
	Correlator CorrelatorConfig `json:"correlator"`
	// Rollup configures the online attribution rollups (§5 use cases
	// computed in-pipeline; see internal/rollup). Disabled by default.
	Rollup RollupConfig `json:"rollup"`
	// Query configures the query plane: the on-disk window store persisting
	// sealed rollups and the /query/* HTTP API over it (see
	// internal/winstore and internal/queryapi). Requires the rollup sink.
	Query QueryConfig `json:"query"`
	// Faults arms named failpoints at boot (chaos testing): point name →
	// "[count*]action(arg)" spec, the same grammar as the FLOWDNS_FAULTS
	// environment variable. Unknown names fail at startup, not silently.
	Faults map[string]string `json:"faults,omitempty"`
	// FaultAdmin mounts /admin/fault on the query server (GET catalog,
	// POST arm/disarm). Off by default: fault injection is a chaos-testing
	// surface.
	FaultAdmin bool `json:"fault_admin,omitempty"`
	// Cluster configures the distributed correlation tier (see
	// internal/forward): role, ring membership, and this process's ring
	// identity. Absent = standalone single-process deployment.
	Cluster ClusterConfig `json:"cluster,omitempty"`
}

// ClusterNode is one ring member's addresses as the router dials them.
type ClusterNode struct {
	// Name is the node's ring identity — it, not the addresses, determines
	// key placement, so addresses can change without moving any shards.
	Name string `json:"name"`
	// Flow is the node's NetFlow v9 UDP ingest address.
	Flow string `json:"flow"`
	// DNS is the node's framed-DNS TCP ingest address.
	DNS string `json:"dns"`
}

// ClusterConfig configures the distributed tier. The same file can be
// shared by every process in the cluster: the router reads Nodes, a worker
// reads Node (its own name) for handoff placement and health reporting.
type ClusterConfig struct {
	// Role selects the process's job: "" (standalone), "router"
	// (consistent-hash fan-out, no local store), or "worker" (a normal
	// correlator that also serves /admin/handoff).
	Role string `json:"role,omitempty"`
	// Node is this process's ring name (workers; optional for routers).
	Node string `json:"node,omitempty"`
	// Nodes is the ring membership with dial addresses (routers).
	Nodes []ClusterNode `json:"nodes,omitempty"`
	// VNodes is the virtual-node count per node; 0 = forward.DefaultVNodes.
	VNodes int `json:"vnodes,omitempty"`
}

// StreamConfig describes one input stream.
type StreamConfig struct {
	// Listen is the listen address (host:port).
	Listen string `json:"listen"`
	// Format names the wire format: "dns" for DNS streams; "netflow"
	// (v5/v9 auto-detected) or "ipfix" for flow streams. Flow formats are
	// detected per datagram regardless, so this is documentation plus
	// validation.
	Format string `json:"format"`
}

// OutputConfig describes one sink.
type OutputConfig struct {
	// Path is the output file; "-" or "" means stdout.
	Path string `json:"path"`
	// Sink names the registered sink backend: "tsv" (default), "json",
	// "influx", "counting", or "discard". See core.SinkNames.
	Sink string `json:"sink"`
	// SkipMisses drops uncorrelated rows.
	SkipMisses bool `json:"skip_misses"`
	// URL is the write endpoint of network-backed sinks; the "influx" sink
	// POSTs line-protocol batches there instead of writing to Path (e.g.
	// "http://localhost:8086/write?db=flowdns").
	URL string `json:"url,omitempty"`
	// Measurement names the influx measurement ("" = "flowdns").
	Measurement string `json:"measurement,omitempty"`
	// Retry wraps this sink in a core.RetrySink: timeout-bounded attempts,
	// doubling-backoff retries, and a bounded in-memory/on-disk spill queue
	// replayed once the sink recovers. nil leaves the sink bare.
	Retry *RetryConfig `json:"retry,omitempty"`
}

// RetryConfig is the JSON shape of core.RetryConfig. Zero fields take the
// core defaults (3 retries, 100 ms backoff, 10 s timeout, 65536 records in
// memory, 64 MiB on disk); negative MaxRetries/MemLimitRecords disable that
// layer, as in core.
type RetryConfig struct {
	MaxRetries      int    `json:"max_retries,omitempty"`
	BackoffMS       int    `json:"backoff_ms,omitempty"`
	TimeoutMS       int    `json:"timeout_ms,omitempty"`
	MemLimitRecords int    `json:"mem_limit_records,omitempty"`
	SpillPath       string `json:"spill_path,omitempty"`
	SpillLimitBytes int64  `json:"spill_limit_bytes,omitempty"`
}

// Core converts to the core package's config.
func (rc *RetryConfig) Core() core.RetryConfig {
	return core.RetryConfig{
		MaxRetries: rc.MaxRetries,
		Backoff:    time.Duration(rc.BackoffMS) * time.Millisecond,
		Timeout:    time.Duration(rc.TimeoutMS) * time.Millisecond,
		MemLimit:   rc.MemLimitRecords,
		SpillPath:  rc.SpillPath,
		SpillLimit: rc.SpillLimitBytes,
	}
}

// NewSink builds the configured sink over w (ignored by writer-less sinks
// such as "counting" and "discard", and by "influx" in URL mode).
func (o OutputConfig) NewSink(w io.Writer) (core.Sink, error) {
	return core.NewSinkByName(o.Sink, core.SinkOptions{
		W: w, SkipMisses: o.SkipMisses, URL: o.URL, Measurement: o.Measurement,
	})
}

// NeedsWriter reports whether the configured sink writes records to an
// output stream ("" means the tsv default), per the sink registry's own
// metadata. Writer-less sinks (counting, discard) must not be given a
// Path — the file would be created and left empty. An "influx" output with
// a URL ships over HTTP, so it takes no writer either.
func (o OutputConfig) NeedsWriter() bool {
	if o.URL != "" {
		return false
	}
	return core.SinkNeedsWriter(o.Sink)
}

// RollupConfig configures the streaming attribution-rollup sink, which
// stacks on top of the configured outputs through the multi-sink.
type RollupConfig struct {
	// Enabled turns the rollup sink on.
	Enabled bool `json:"enabled"`
	// WindowSeconds is the rotation interval; 0 = 60 s.
	WindowSeconds int `json:"window_seconds"`
	// Shards is the counter shard count; 0 = default (8).
	Shards int `json:"shards"`
	// Path receives sealed windows ("-" = stdout, "" = no file export).
	Path string `json:"path"`
	// Format is the sealed-window encoding: "tsv" (default) or "json".
	Format string `json:"format"`
	// BGPTable is a "prefix asn" file enabling origin-AS attribution
	// (empty = every flow under ASN 0).
	BGPTable string `json:"bgp_table"`
	// Blocklist is a "domain [category]" file enabling DBL-category
	// attribution (empty = every service benign).
	Blocklist string `json:"blocklist"`
	// HTTP is the listen address of the /rollups live-snapshot endpoint
	// ("" = disabled).
	HTTP string `json:"http"`
}

// QueryConfig configures the serving plane over sealed rollup windows.
type QueryConfig struct {
	// Listen is the query-plane HTTP address serving /query/*, /metrics,
	// and /rollups ("" = no query server).
	Listen string `json:"listen"`
	// StoreDir is the window store's partition directory ("" = sealed
	// windows are not persisted; the query server, if any, answers empty).
	StoreDir string `json:"store_dir"`
	// PartSeconds is the partition interval — one segment file per interval
	// of sealed windows; 0 = 3600.
	PartSeconds int `json:"part_seconds"`
	// RetentionSeconds deletes partitions older than this; 0 keeps
	// everything.
	RetentionSeconds int `json:"retention_seconds"`
	// CompactAfterSeconds is how long after a partition's interval ends
	// before its windows are compacted; 0 = store default (600), negative
	// disables compaction.
	CompactAfterSeconds int `json:"compact_after_seconds"`
	// CacheEntries bounds the materialized-result cache; 0 = default (256).
	CacheEntries int `json:"cache_entries"`
}

// Window returns the rotation interval as a duration.
func (rc RollupConfig) Window() time.Duration {
	if rc.WindowSeconds <= 0 {
		return rollup.DefaultWindow
	}
	return time.Duration(rc.WindowSeconds) * time.Second
}

// CorrelatorConfig mirrors the tunable subset of core.Config, plus the two
// per-source knobs (IngestBatch, DNSIdleTimeoutSeconds) the daemon applies
// to the listeners it wires rather than to the correlator.
type CorrelatorConfig struct {
	Variant         string `json:"variant"`            // Main (default), NoSplit, ...
	LookupKey       string `json:"lookup_key"`         // source (default), destination, both
	NumSplit        int    `json:"num_split"`          // 0 = paper default (10)
	Lanes           int    `json:"lanes"`              // lanes, one worker each; 0 = one per split (paper default)
	AClearUpSeconds int    `json:"a_clear_up_seconds"` // 0 = 3600
	CClearUpSeconds int    `json:"c_clear_up_seconds"` // 0 = 7200
	CNAMEChainLimit int    `json:"cname_chain_limit"`  // 0 = 6
	QueueCapacity   int    `json:"queue_capacity"`     // 0 = default
	IngestBatch     int    `json:"ingest_batch"`       // UDP datagrams per batched read; 0 = default (32), 1 = single-read loop

	// DNSIdleTimeoutSeconds closes a DNS TCP stream silent for this long
	// (counted in source stats); 0 keeps wedged streams open forever.
	DNSIdleTimeoutSeconds int `json:"dns_idle_timeout_seconds"`

	// SnapshotPath enables warm-restart checkpointing: the store is
	// restored from this file on boot and checkpointed back every
	// SnapshotEverySeconds (0 = default, 300 s) plus once on graceful
	// shutdown. Empty disables checkpointing.
	SnapshotPath         string `json:"snapshot_path"`
	SnapshotEverySeconds int    `json:"snapshot_every_seconds"`

	// SampleMaxShed > 0 enables adaptive overload shedding on every stage
	// queue: once a queue passes SampleLowWater fill the sampler sheds a
	// fraction of offered records ramping linearly to SampleMaxShed at
	// SampleHighWater. Shed records are counted (Sampled in /metrics and
	// /query/health), never silent. Watermarks default to 0.5 / 0.9 when
	// only the shed ceiling is given.
	SampleLowWater  float64 `json:"sample_low_water"`
	SampleHighWater float64 `json:"sample_high_water"`
	SampleMaxShed   float64 `json:"sample_max_shed"`
}

// validFormats per stream family.
var (
	dnsFormats  = map[string]bool{"": true, "dns": true}
	flowFormats = map[string]bool{"": true, "netflow": true, "ipfix": true}
)

// Load reads and validates a configuration file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// removedCorrelatorKeys are settings lanes replaced (a lane runs one worker
// that fills, looks up and writes to the sink); plain decoding would skip
// them silently.
var removedCorrelatorKeys = []string{
	"fill_lanes", "fillup_workers", "lookup_workers",
	"write_workers", "write_batch_size", "write_flush_ms",
}

// Parse decodes and validates a configuration document.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	var raw struct{ Correlator map[string]json.RawMessage }
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	for _, k := range removedCorrelatorKeys {
		if _, ok := raw.Correlator[k]; ok {
			return nil, fmt.Errorf("config: correlator.%s was removed: each lane runs one worker that fills, looks up and writes, so set lanes instead", k)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks the whole document. It is the only settings validation
// the daemon has: a File built from command-line flags passes through here
// exactly as a parsed one does.
func (f *File) Validate() error {
	if len(f.DNSStreams) == 0 && len(f.FlowStreams) == 0 {
		return fmt.Errorf("config: no input streams configured")
	}
	for i, s := range f.DNSStreams {
		if s.Listen == "" {
			return fmt.Errorf("config: dns_streams[%d]: missing listen address", i)
		}
		if !dnsFormats[s.Format] {
			return fmt.Errorf("config: dns_streams[%d]: unsupported format %q", i, s.Format)
		}
	}
	for i, s := range f.FlowStreams {
		if s.Listen == "" {
			return fmt.Errorf("config: flow_streams[%d]: missing listen address", i)
		}
		if !flowFormats[s.Format] {
			return fmt.Errorf("config: flow_streams[%d]: unsupported format %q", i, s.Format)
		}
	}
	registered := core.SinkNames()
	for i, o := range f.AllOutputs() {
		// Label errors with the user's own field: the singular "output"
		// entry, or its index in the "outputs" list.
		field := "output"
		if i > 0 {
			field = fmt.Sprintf("outputs[%d]", i-1)
		}
		if o.Sink == "multi" {
			return fmt.Errorf("config: %s: \"multi\" is implied by listing several outputs", field)
		}
		if o.Sink != "" && !slices.Contains(registered, o.Sink) {
			return fmt.Errorf("config: %s: unknown sink %q (have %v)", field, o.Sink, registered)
		}
		if o.URL != "" && o.Sink != "influx" {
			return fmt.Errorf("config: %s: url is only supported by the \"influx\" sink, not %q", field, o.Sink)
		}
		if !o.NeedsWriter() && o.Path != "" && o.Path != "-" {
			return fmt.Errorf("config: %s: sink %q does not write to a file; remove path %q", field, o.Sink, o.Path)
		}
		if o.Retry != nil {
			if o.Retry.BackoffMS < 0 || o.Retry.TimeoutMS < 0 || o.Retry.SpillLimitBytes < 0 {
				return fmt.Errorf("config: %s: negative retry durations or spill limit", field)
			}
		}
	}
	// Fault specs are grammar-checked here; names resolve at arming time in
	// the daemon, where every failpoint-bearing package is linked.
	for name, spec := range f.Faults {
		if name == "" {
			return fmt.Errorf("config: faults: empty failpoint name")
		}
		if err := fault.ValidateSpec(spec); err != nil {
			return fmt.Errorf("config: faults: %s: %w", name, err)
		}
	}
	if f.Rollup.Enabled {
		if _, err := rollup.ParseFormat(f.Rollup.Format); err != nil {
			return fmt.Errorf("config: rollup: %w", err)
		}
	}
	if f.Rollup.WindowSeconds < 0 {
		return fmt.Errorf("config: rollup: negative window_seconds %d", f.Rollup.WindowSeconds)
	}
	if f.Rollup.Shards < 0 {
		return fmt.Errorf("config: rollup: negative shards %d", f.Rollup.Shards)
	}
	if f.Query.StoreDir != "" && !f.Rollup.Enabled {
		return fmt.Errorf("config: query: store_dir requires rollup.enabled (the store persists sealed rollup windows)")
	}
	// A cluster process serves health, metrics, and admin surfaces on the
	// query address even without a window store; standalone, a listen
	// address with nothing behind it is a misconfiguration.
	if f.Query.Listen != "" && f.Query.StoreDir == "" && f.Cluster.Role == "" {
		return fmt.Errorf("config: query: listen without store_dir (nothing to serve)")
	}
	if f.Query.PartSeconds < 0 {
		return fmt.Errorf("config: query: negative part_seconds %d", f.Query.PartSeconds)
	}
	if f.Query.RetentionSeconds < 0 {
		return fmt.Errorf("config: query: negative retention_seconds %d", f.Query.RetentionSeconds)
	}
	if f.Query.CacheEntries < 0 {
		return fmt.Errorf("config: query: negative cache_entries %d", f.Query.CacheEntries)
	}
	switch f.Cluster.Role {
	case "", "worker", "router":
	default:
		return fmt.Errorf("config: cluster: unknown role %q (want router or worker)", f.Cluster.Role)
	}
	if f.Cluster.VNodes < 0 {
		return fmt.Errorf("config: cluster: negative vnodes %d", f.Cluster.VNodes)
	}
	// One file may be shared by a cluster's router and workers, so nodes
	// beside a worker role is fine; either key on a standalone process is
	// a role the operator forgot to set.
	if f.Cluster.Role == "" && (f.Cluster.Node != "" || len(f.Cluster.Nodes) > 0) {
		return fmt.Errorf("config: cluster: node and nodes require a role")
	}
	if f.Cluster.Role == "router" {
		if len(f.Cluster.Nodes) == 0 {
			return fmt.Errorf("config: cluster: router role needs nodes")
		}
		seen := map[string]bool{}
		for i, n := range f.Cluster.Nodes {
			if n.Name == "" || n.Flow == "" || n.DNS == "" {
				return fmt.Errorf("config: cluster: nodes[%d]: name, flow, and dns are all required", i)
			}
			if seen[n.Name] {
				return fmt.Errorf("config: cluster: duplicate node name %q", n.Name)
			}
			seen[n.Name] = true
		}
	}
	if f.Correlator.IngestBatch < 0 {
		return fmt.Errorf("config: negative ingest_batch %d", f.Correlator.IngestBatch)
	}
	if f.Correlator.DNSIdleTimeoutSeconds < 0 {
		return fmt.Errorf("config: negative dns_idle_timeout_seconds %d", f.Correlator.DNSIdleTimeoutSeconds)
	}
	_, err := f.CoreConfig()
	return err
}

// AllOutputs returns the full sink list the daemon must construct: the
// singular Output followed by every Outputs entry. Validation and
// construction both iterate this, so the two can never diverge.
func (f *File) AllOutputs() []OutputConfig {
	return append([]OutputConfig{f.Output}, f.Outputs...)
}

// CoreConfig converts the correlator section to a core.Config, rejecting
// values core cannot express.
func (f *File) CoreConfig() (core.Config, error) {
	cc := f.Correlator
	variant := core.Variant(cc.Variant)
	if cc.Variant == "" {
		variant = core.VariantMain
	}
	switch variant {
	case core.VariantMain, core.VariantNoSplit, core.VariantNoClearUp,
		core.VariantNoRotation, core.VariantNoLong, core.VariantExactTTL:
	default:
		return core.Config{}, fmt.Errorf("config: unknown variant %q", cc.Variant)
	}
	cfg := core.ConfigForVariant(variant)
	switch cc.LookupKey {
	case "", "source":
		cfg.Key = core.LookupSource
	case "destination":
		cfg.Key = core.LookupDestination
	case "both":
		cfg.Key = core.LookupBoth
	default:
		return core.Config{}, fmt.Errorf("config: unknown lookup_key %q", cc.LookupKey)
	}
	if cc.NumSplit > 0 {
		cfg.NumSplit = cc.NumSplit
	}
	if cc.Lanes > 0 {
		cfg.Lanes = cc.Lanes
	}
	if cc.AClearUpSeconds > 0 {
		cfg.AClearUpInterval = time.Duration(cc.AClearUpSeconds) * time.Second
	}
	if cc.CClearUpSeconds > 0 {
		cfg.CClearUpInterval = time.Duration(cc.CClearUpSeconds) * time.Second
	}
	if cc.CNAMEChainLimit > 0 {
		cfg.CNAMEChainLimit = cc.CNAMEChainLimit
	}
	if cc.QueueCapacity > 0 {
		cfg.FillQueueCap = cc.QueueCapacity
		cfg.LookQueueCap = cc.QueueCapacity
	}
	if cc.SnapshotEverySeconds < 0 {
		return core.Config{}, fmt.Errorf("config: negative snapshot_every_seconds %d", cc.SnapshotEverySeconds)
	}
	if cc.SnapshotEverySeconds > 0 && cc.SnapshotPath == "" {
		return core.Config{}, fmt.Errorf("config: snapshot_every_seconds set without snapshot_path")
	}
	cfg.SnapshotPath = cc.SnapshotPath
	if cc.SnapshotEverySeconds > 0 {
		cfg.SnapshotEvery = time.Duration(cc.SnapshotEverySeconds) * time.Second
	}
	if cc.SampleMaxShed < 0 || cc.SampleMaxShed > 1 {
		return core.Config{}, fmt.Errorf("config: sample_max_shed %v outside [0,1]", cc.SampleMaxShed)
	}
	if cc.SampleLowWater < 0 || cc.SampleLowWater > 1 ||
		cc.SampleHighWater < 0 || cc.SampleHighWater > 1 {
		return core.Config{}, fmt.Errorf("config: sampler watermarks must lie in [0,1]")
	}
	if cc.SampleMaxShed == 0 && (cc.SampleLowWater != 0 || cc.SampleHighWater != 0) {
		return core.Config{}, fmt.Errorf("config: sampler watermarks set without sample_max_shed")
	}
	cfg.SampleLowWater = cc.SampleLowWater
	cfg.SampleHighWater = cc.SampleHighWater
	cfg.SampleMaxShed = cc.SampleMaxShed
	return cfg, nil
}

// Example returns a documented example configuration, used by
// `flowdns -example-config`.
func Example() *File {
	return &File{
		DNSStreams: []StreamConfig{
			{Listen: ":5353", Format: "dns"},
			{Listen: ":5354", Format: "dns"},
		},
		FlowStreams: []StreamConfig{
			{Listen: ":2055", Format: "netflow"},
			{Listen: ":4739", Format: "ipfix"},
		},
		Output: OutputConfig{Path: "correlated.tsv", Sink: "tsv"},
		Rollup: RollupConfig{
			Enabled:       true,
			WindowSeconds: 60,
			Path:          "rollups.tsv",
			Format:        "tsv",
			BGPTable:      "bgp-table.txt",
			Blocklist:     "blocklist.txt",
			HTTP:          ":8080",
		},
		Query: QueryConfig{
			Listen:              ":8081",
			StoreDir:            "winstore",
			PartSeconds:         3600,
			RetentionSeconds:    7 * 24 * 3600,
			CompactAfterSeconds: 600,
			CacheEntries:        256,
		},
		Correlator: CorrelatorConfig{
			Variant:               "Main",
			LookupKey:             "source",
			IngestBatch:           stream.DefaultIngestBatch,
			DNSIdleTimeoutSeconds: 90,
			SnapshotPath:          "flowdns.snapshot",
			SnapshotEverySeconds:  int(core.DefaultSnapshotInterval / time.Second),
		},
	}
}
