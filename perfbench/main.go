// Command perfbench is fitingtree's end-to-end benchmark. It drives the
// public facades with closed-loop clients under one of three workloads,
// checks every result, and prints each metric by name and unit followed
// by one JSON result line.
//
//	perfbench --workload lookup-heavy --seed 1 --seconds 10 --trace 0
//
// Workloads (see specs in workloads.go for sizes and mixes):
//
//   - lookup-heavy: Optimistic over 8M Weblogs keys, 2 clients; 90%
//     Lookup (a tenth of them of never-stored keys), 5% AscendRange over
//     100 rows, 5% Insert.
//   - ingest: Optimistic over 1M keys, 1 client; 70% Insert of shuffled
//     held-out keys, 10% Delete of own inserts, 20% Lookup of recent own
//     inserts.
//   - durable: DurableSharded with 2 shards on files, 2 clients; 50%
//     Insert, 5% Delete, 45% Lookup. At the end each client calls Sync,
//     the store is killed through fault injectors and reopened, and every
//     acknowledged write must read back.
//
// All workloads use Options{Error: 100, BufferSize: -1} with library
// defaults otherwise (asynchronous flush on a multi-core runtime, ladder
// depth 4, flush every 1024 writes, self-tuning off). Keys are generated
// from the seed before timing; every value equals its key. Clients are
// closed-loop and never outnumber the CPUs.
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off. The measured phase is cut into one-second slices; latency
// percentiles and throughput are medians over the slices. ops_per_s
// counts operations per second of CPU time the hypervisor granted, and
// setup_s, the median of several set-ups, is scaled the same way; the
// raw wall-clock figures are printed as ops_per_wall_s and setup_wall_s. index_bytes and
// heap_bytes_per_key are read once, after a fixed number of writes, with
// the clients parked and the facade's pending writes folded. Metrics not
// declared in BENCHMARK.json are printed as ungated extras.
//
// With --trace 1 the measured phase alternates untraced and traced
// quarter-second slices; traced operations get spans, probe a reference
// tree the benchmark owns, and feed the per-layer metrics, and the
// difference in throughput between the two kinds of slice is
// trace.overhead_frac. Spans are kept in memory and written to --out at
// the end, one JSON object per line.
//
// Run it through run.py, which builds it from the enclosing checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: lookup-heavy, ingest or durable")
	seed := fs.Int64("seed", 1, "seed for keys and operation streams")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := fs.String("out", "", "directory for result records and span dumps (none if empty)")
	tmp := fs.String("tmp", os.TempDir(), "directory under which the durable workload keeps its store")
	commit := fs.String("commit", "unknown", "source revision to record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload lookup-heavy|ingest|durable, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	p := runParams{seed: *seed, seconds: *seconds, trace: *trace == 1, tmpDir: *tmp}
	traceOut := ""
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if p.trace {
			traceOut = filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, p.seed))
		}
	}
	rep, err := run(sp, p, traceOut)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	env := environment(sp, p, rep.clients, *commit)
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	ms, err := rep.vals.pick(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	printReport(stdout, sp, env, rep, ms)
	if *out != "" {
		path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", sp.name, p.seed, *trace))
		if err := writeRecord(path, sp, env, rep, ms); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := resultLine(rep.correct, rep.attempted, rep.failed, ms)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// envEntry is one line of the environment block.
type envEntry struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

func environment(sp spec, p runParams, clients int, commit string) []envEntry {
	return []envEntry{
		{"go", runtime.Version()},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"numcpu", fmt.Sprint(runtime.NumCPU())},
		{"commit", commit},
		{"seed", fmt.Sprint(p.seed)},
		{"workload", sp.name},
		{"bulk_keys", fmt.Sprint(sp.bulk)},
		{"held_out_keys_per_client", fmt.Sprint(sp.pool)},
		{"never_stored_keys", fmt.Sprint(sp.never)},
		{"clients", fmt.Sprint(clients)},
		{"seconds", fmt.Sprint(p.seconds)},
		{"trace", fmt.Sprint(p.trace)},
	}
}

func printReport(w io.Writer, sp spec, env []envEntry, rep *report, ms []metric) {
	fmt.Fprintf(w, "perfbench %s\n", sp.name)
	fmt.Fprintf(w, "why: %s\n", sp.why)
	parts := make([]string, len(env))
	for i, e := range env {
		parts[i] = e.Key + "=" + e.Value
	}
	fmt.Fprintf(w, "env: %s\n", strings.Join(parts, " "))
	for _, m := range ms {
		fmt.Fprintf(w, "  %-26s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range rep.extras {
		fmt.Fprintf(w, "  %-26s %16.6g %s (ungated)\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rep.attempted, rep.failed, rep.correct)
	for _, s := range rep.notes {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
	for _, s := range rep.problems {
		fmt.Fprintf(w, "  problem: %s\n", s)
	}
}

// writeRecord saves one run's full record: environment, the reported
// metrics, the ungated extras and any problems found.
func writeRecord(path string, sp spec, env []envEntry, rep *report, ms []metric) error {
	rec := struct {
		Workload  string     `json:"workload"`
		Why       string     `json:"why"`
		Env       []envEntry `json:"env"`
		Correct   bool       `json:"correct"`
		Attempted int64      `json:"attempted"`
		Failed    int64      `json:"failed"`
		Metrics   []metric   `json:"metrics"`
		Extras    []metric   `json:"extras"`
		Problems  []string   `json:"problems"`
		Notes     []string   `json:"notes"`
	}{sp.name, sp.why, env, rep.correct, rep.attempted, rep.failed, ms, rep.extras, rep.problems, rep.notes}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
