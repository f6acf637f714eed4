package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fitingtree/internal/bench"
)

// TestWriteReport writes one report and checks the JSON field names the
// committed BENCH_pr*.json files use, plus go_version.
func TestWriteReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	cfg := bench.Config{N: 1234, Seed: 7}
	r := bench.Report{FlushEvery: 256, Points: []bench.ParallelPoint{{Facade: "rwmutex", Goroutines: 2}}}
	if err := writeReport(path, "burst", cfg, r); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"experiment":  "burst",
		"n":           float64(1234),
		"flush_every": float64(256),
		"seed":        float64(7),
		"go_version":  runtime.Version(),
		"num_cpu":     float64(runtime.NumCPU()),
		"gomaxprocs":  float64(runtime.GOMAXPROCS(0)),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	pts, ok := got["points"].([]any)
	if !ok || len(pts) != 1 {
		t.Fatalf("points = %v", got["points"])
	}
	if p := pts[0].(map[string]any); p["facade"] != "rwmutex" || p["goroutines"] != float64(2) {
		t.Errorf("point = %v", p)
	}
	if len(got) != len(want)+1 {
		t.Errorf("report has fields %v, want exactly %d", got, len(want)+1)
	}

	// flush_every is omitted when zero.
	if err := writeReport(path, "parallel", cfg, bench.Report{Points: []bench.ParallelPoint{}}); err != nil {
		t.Fatal(err)
	}
	blob, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got["flush_every"]; ok {
		t.Errorf("flush_every present at zero: %s", blob)
	}
}

// TestAcceptsJSON pins which experiments -json applies to.
func TestAcceptsJSON(t *testing.T) {
	for _, name := range []string{"parallel", "shardwrite", "flushstall", "flushpub", "recovery", "shardrecovery", "burst", "strings", "adaptive", "all"} {
		if !acceptsJSON(name) {
			t.Errorf("-json rejected for -exp %s", name)
		}
	}
	for _, name := range []string{"fig6", "table1", "extrange", "extio", "nope"} {
		if acceptsJSON(name) {
			t.Errorf("-json accepted for -exp %s", name)
		}
	}
	if selected("extio") != nil {
		t.Error("extio is still an experiment")
	}
}
