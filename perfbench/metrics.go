package main

import (
	"encoding/json"
	"fmt"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics a run with tracing off reports on every
// workload: what a caller of the facade sees, chosen among those that
// repeat between runs of the same code on a shared host. Throughput
// (ops_per_s), p99 latency and the figures that exist on one workload
// only (scan latency, recovery time, disk bytes per key) are printed
// beside them, ungated: on the durable workload, hypervisor steal and a
// disk that background checkpoints keep saturated moved throughput and
// p99 by a third between such runs, beyond the largest bound allowed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lookup_p50_us", "us", "lower", 0.2},
	{"write_p50_us", "us", "lower", 0.25},
	{"index_bytes", "bytes", "lower", 0.25},
	{"heap_bytes_per_key", "bytes", "lower", 0.25},
}

// perLayer are the traced run's metrics, grouped by the layer they time
// and the end-to-end metric each group should move. A layer a workload
// does not exercise, or that its facade does not expose, reads 0 there:
// WAL, checkpoint, shard and recovery figures exist only on durable, and
// DurableSharded exposes no flush hook, backpressure counter or
// per-layer ladder sizes.
var perLayer = []metricDef{
	// Router (internal/btree, core routing), on the reference tree:
	// lookup_p50_us on lookup-heavy.
	{"router.descend_ns", "ns", "lower", 0},
	{"router.height", "count", "lower", 0},
	// In-page prediction and window search (internal/core, segment):
	// lookup_p50_us on lookup-heavy, and index_bytes.
	{"page.search_ns", "ns", "lower", 0},
	{"base.lookup_ns", "ns", "lower", 0},
	{"page.count", "count", "lower", 0},
	// Delta and merge-ladder overlay: lookup_p99_us on ingest.
	{"overlay.lookup_ns", "ns", "lower", 0},
	{"ladder.depth_mean", "count", "lower", 0},
	{"ladder.pending_mean", "count", "lower", 0},
	// Delta copy and publish; core.write_ns is the bare-tree floor:
	// write_p50_us and ops_per_s on ingest.
	{"delta.write_ns", "ns", "lower", 0},
	{"core.write_ns", "ns", "lower", 0},
	{"alloc_bytes_per_op", "bytes", "lower", 0},
	// Fold (copy-on-write merge) and the collector: write_p99_us on ingest.
	{"fold.count", "count", "lower", 0},
	{"fold.interval_ms", "ms", "higher", 0},
	{"fold.pages_per_kwrite", "count", "lower", 0},
	{"fold.backpressure_count", "count", "lower", 0},
	{"fold.stall_us", "us", "lower", 0},
	{"gc.count", "count", "lower", 0},
	{"gc.pause_total_ms", "ms", "lower", 0},
	// WAL append and group-commit fsync: write_p99_us and ops_per_s on
	// durable.
	{"wal.bytes_per_write", "bytes", "lower", 0},
	{"wal.sync_count", "count", "lower", 0},
	{"wal.sync_p50_us", "us", "lower", 0},
	{"wal.sync_busy_frac", "ratio", "lower", 0},
	// Checkpoint (pager, snapshot codec): disk_bytes_per_key and
	// write_p99_us on durable.
	{"ckpt.pages_written", "count", "lower", 0},
	{"ckpt.bytes_per_write", "bytes", "lower", 0},
	{"ckpt.dev_sync_count", "count", "lower", 0},
	{"ckpt.dev_sync_p50_us", "us", "lower", 0},
	// Shard routing and rebalance: ops_per_s on durable.
	{"shard.size_skew", "ratio", "lower", 0},
	{"shard.rebalances", "count", "lower", 0},
	// Recovery: recovery_s on durable.
	{"recovery.wal_records", "count", "lower", 0},
	{"recovery.dev_pages_read", "count", "lower", 0},
	// The cost of tracing itself, per workload.
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// values collects a run's measurements by name.
type values map[string]float64

// pick returns defs' values in declaration order, failing on any that
// the run did not measure, so a result line always carries the full
// declared set.
func (v values) pick(defs []metricDef) ([]metric, error) {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out = append(out, metric{d.Name, d.Unit, x})
	}
	return out, nil
}

// resultLine renders the last line of standard output.
func resultLine(correct bool, attempted, failed int64, ms []metric) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(ms))
	for _, x := range ms {
		m[x.Name] = val{x.Value, x.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, m})
}
