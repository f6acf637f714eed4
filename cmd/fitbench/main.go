// Command fitbench reproduces the FITing-Tree paper's evaluation (Section
// 7): Table 1 and Figures 1, 6, 7, 8, 9, 10, 11, 12, and 13. Each
// experiment prints the rows or series the paper reports.
//
// Usage:
//
//	fitbench -exp all                 # everything, paper order
//	fitbench -exp fig6 -n 2000000     # one experiment at a larger scale
//	fitbench -exp table1 -quick       # reduced sweeps
//	fitbench -exp parallel -json p.json  # also write the points as JSON
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
	"time"

	"fitingtree/internal/bench"
)

// experiment is one -exp choice. Exactly one of table and report is set:
// a table experiment only prints its rows; a report experiment also
// returns its points, which -json writes out as a bench.Report.
type experiment struct {
	name   string
	table  func(io.Writer, bench.Config)
	report func(io.Writer, bench.Config) bench.Report
}

// experiments is the runner table, in the order -exp all runs it.
var experiments = []experiment{
	{name: "table1", table: bench.Table1},
	{name: "fig1", table: bench.Fig1},
	{name: "fig6", table: bench.Fig6},
	{name: "fig7", table: bench.Fig7},
	{name: "fig8", table: bench.Fig8},
	{name: "fig9", table: bench.Fig9},
	{name: "fig10", table: bench.Fig10},
	{name: "fig11", table: bench.Fig11},
	{name: "fig12", table: bench.Fig12},
	{name: "fig13", table: bench.Fig13},
	{name: "extrange", table: bench.ExtRange},
	{name: "extablation", table: bench.ExtAblation},
	{name: "shardwrite", report: points(bench.ExtShardWrite)},
	{name: "flushstall", report: func(w io.Writer, cfg bench.Config) bench.Report {
		p := bench.ExtFlushStall(w, cfg)
		r := bench.Report{Points: p}
		if len(p) > 0 {
			r.FlushEvery = p[0].FlushEvery
		}
		return r
	}},
	{name: "flushpub", report: points(bench.ExtFlushPub)},
	{name: "recovery", report: points(bench.ExtRecovery)},
	{name: "shardrecovery", report: points(bench.ExtShardRecovery)},
	{name: "burst", report: func(w io.Writer, cfg bench.Config) bench.Report {
		p := bench.ExtBurst(w, cfg)
		r := bench.Report{Points: p}
		if len(p) > 0 {
			r.FlushEvery = p[0].FlushEvery
		}
		return r
	}},
	{name: "strings", report: points(bench.ExtStrings)},
	{name: "adaptive", report: points(bench.ExtAdaptive)},
	{name: "parallel", report: points(bench.ExtParallel)},
}

// points adapts an experiment that returns a point slice to the runner
// table.
func points[P any](run func(io.Writer, bench.Config) []P) func(io.Writer, bench.Config) bench.Report {
	return func(w io.Writer, cfg bench.Config) bench.Report {
		return bench.Report{Points: run(w, cfg)}
	}
}

// selected returns the experiments -exp name runs: the whole table for
// "all", otherwise the named one, and nil for an unknown name.
func selected(name string) []experiment {
	if name == "all" {
		return experiments
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}
		}
	}
	return nil
}

// acceptsJSON reports whether -json applies to -exp name: to every
// report experiment, and to "all".
func acceptsJSON(name string) bool {
	for _, e := range selected(name) {
		if e.report != nil {
			return true
		}
	}
	return false
}

// names lists the experiments that have a report (or, with reports
// false, every experiment), in table order.
func names(reports bool) string {
	var out []string
	for _, e := range experiments {
		if !reports || e.report != nil {
			out = append(out, e.name)
		}
	}
	return strings.Join(out, ", ")
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+names(false)+", all")
		n        = flag.Int("n", 1_000_000, "base dataset size")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		probes   = flag.Int("probes", 100_000, "lookup probes per measurement")
		quick    = flag.Bool("quick", false, "reduced sweeps for a fast run")
		jsonPath = flag.String("json", "", "write the machine-readable points of -exp "+names(true)+" to this file; with -exp all, parallel goes here and each other one to <name>_<exp>.<ext>")
	)
	flag.Parse()

	cfg := bench.Config{
		N:          *n,
		Seed:       *seed,
		Probes:     *probes,
		MinMeasure: 100 * time.Millisecond,
		Quick:      *quick,
	}

	run := selected(*exp)
	if run == nil {
		fmt.Fprintf(os.Stderr, "fitbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" && !acceptsJSON(*exp) {
		fmt.Fprintf(os.Stderr, "fitbench: -json applies only to -exp %s, or all\n", names(true))
		os.Exit(2)
	}
	start := time.Now()
	for _, e := range run {
		if e.table != nil {
			e.table(os.Stdout, cfg)
			continue
		}
		r := e.report(os.Stdout, cfg)
		path := *jsonPath
		if path == "" {
			continue
		}
		if *exp == "all" && e.name != "parallel" {
			path = suffixedPath(path, "_"+e.name)
		}
		if err := writeReport(path, e.name, cfg, r); err != nil {
			fmt.Fprintf(os.Stderr, "fitbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
	fmt.Printf("(%s in %s, n=%d, seed=%d)\n", *exp, time.Since(start).Round(time.Millisecond), *n, *seed)
}

// writeReport stamps r with the experiment's name, the run's
// configuration and the Go runtime it ran on, and writes it to path as
// indented JSON.
func writeReport(path, name string, cfg bench.Config, r bench.Report) error {
	r.Experiment, r.N, r.Seed = name, cfg.N, cfg.Seed
	r.GoVersion, r.NumCPU, r.GOMAXPROCS = runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode json: %w", err)
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// suffixedPath derives a sibling report's file name when -exp all
// captures several experiments under one -json flag: "x.json" with
// suffix "_shardwrite" becomes "x_shardwrite.json".
func suffixedPath(path, suffix string) string {
	if ext := filepath.Ext(path); ext != "" {
		return strings.TrimSuffix(path, ext) + suffix + ext
	}
	return path + suffix
}
