package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"fitingtree"
)

// The naming rules BENCHMARK.json must follow.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// scaled shrinks a workload's data for smoke tests.
func (s spec) scaled(bulk, pool, ringLen int) spec {
	s.bulk, s.pool, s.ringLen = bulk, pool, ringLen
	s.never = min(s.never, bulk/4)
	s.sizeAt = min(s.sizeAt, bulk/4)
	return s
}

func TestQuantileRefusesThinTail(t *testing.T) {
	var h hist
	for i := 1; i <= 100; i++ {
		h.record(time.Duration(i))
	}
	if _, err := h.quantile(0.9); err != nil {
		t.Errorf("p90 of 100 samples has 10 beyond it, got %v", err)
	}
	if _, err := h.quantile(0.95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it and was not refused")
	}
	for i := 0; i < 899; i++ {
		h.record(time.Microsecond)
	}
	if _, err := h.quantile(0.99); err == nil {
		t.Errorf("p99 of %d samples was not refused", h.n)
	}
	h.record(time.Microsecond)
	if _, err := h.quantile(0.99); err != nil {
		t.Errorf("p99 of %d samples: %v", h.n, err)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.record(time.Duration(i) * 10)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, err := h.quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		want := q * 1e6
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%v = %v, want %v within 1%%", q*100, got, want)
		}
	}
	if m := h.mean(); math.Abs(m-500005)/500005 > 1e-9 {
		t.Errorf("mean = %v", m)
	}
}

func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.Name) || !metricUnit.MatchString(d.Unit) {
				t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %q: better = %q", d.Name, d.Better)
			}
		}
	}
	largest := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == "setup_s" })
	if i < 0 || endToEnd[i].Unit != "s" || endToEnd[i].Better != "lower" || endToEnd[i].Bound != largest {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound")
	}
}

// TestBenchmarkJSON checks that the declaration at the repository root
// matches the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d declared as %q %q, implemented as %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, want %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, want %+v", b.PerLayer, perLayer)
	}
}

func TestDatasetSplit(t *testing.T) {
	ds, err := makeDataset(7, 5000, 300, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.bulk) != 5000 || len(ds.never) != 300 || len(ds.pools) != 2 || len(ds.pools[0]) != 2000 || len(ds.pools[1]) != 2000 {
		t.Fatalf("sizes: bulk %d never %d pools %d", len(ds.bulk), len(ds.never), len(ds.pools))
	}
	seen := map[uint64]bool{}
	for _, part := range [][]uint64{ds.bulk, ds.never, ds.pools[0], ds.pools[1]} {
		for _, k := range part {
			if seen[k] {
				t.Fatalf("key %d appears twice", k)
			}
			seen[k] = true
		}
	}
	if !slices.IsSorted(ds.bulk) {
		t.Error("bulk keys are not sorted")
	}
	again, _ := makeDataset(7, 5000, 300, 2000, 2)
	if !slices.Equal(ds.pools[1], again.pools[1]) || !slices.Equal(makeOps(7, 1, 64, specs[0].mix), makeOps(7, 1, 64, specs[0].mix)) {
		t.Error("the same seed gave different inputs")
	}
}

// lossyStore forgets every tenth insert, so the client's checks must
// catch it.
type lossyStore struct {
	m map[uint64]uint64
	n int
}

func (s *lossyStore) Lookup(k uint64) (uint64, bool) { v, ok := s.m[k]; return v, ok }
func (s *lossyStore) AscendRange(lo, hi uint64, fn func(k, v uint64) bool) {
	panic("not used")
}
func (s *lossyStore) Insert(k, v uint64) error {
	if s.n++; s.n%10 != 0 {
		s.m[k] = v
	}
	return nil
}
func (s *lossyStore) Delete(k uint64) (bool, error) {
	_, ok := s.m[k]
	delete(s.m, k)
	return ok, nil
}
func (s *lossyStore) Len() int                { return len(s.m) }
func (s *lossyStore) Stats() fitingtree.Stats { return fitingtree.Stats{} }

func TestChecksCatchLostWrites(t *testing.T) {
	sp, _ := specByName("ingest")
	sp = sp.scaled(1000, 5000, 1<<12)
	ds, err := makeDataset(3, sp.bulk, sp.never, sp.pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := &lossyStore{m: map[uint64]uint64{}}
	for _, k := range ds.bulk {
		st.m[k] = k
	}
	c := newClient(0, sp, 3, ds, newControl(0), 1)
	c.st = st
	for i := 0; i < 3000; i++ {
		c.step(c.ops[i], modeUntraced, 0)
	}
	if c.failed == 0 {
		t.Error("lookups and deletes of lost inserts were not reported")
	}
	rep := &report{correct: true}
	verify(rep, st, ds, []*client{c}, len(ds.bulk)+len(c.live), false)
	if rep.correct {
		t.Error("the final read-back did not catch lost inserts")
	}
}

func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, full := range specs {
		sp := full.scaled(20000, 200000, 1<<16)
		sp.setups = 2
		for _, trace := range []bool{false, true} {
			rep, err := run(sp, runParams{seed: 11, seconds: 0.6, trace: trace, tmpDir: t.TempDir()}, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v",
					sp.name, trace, rep.correct, rep.failed, rep.attempted, rep.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			ms, err := rep.vals.pick(defs)
			if err != nil {
				t.Errorf("%s trace=%v: %v", sp.name, trace, err)
			}
			line, err := resultLine(rep.correct, rep.attempted, rep.failed, ms)
			if err != nil {
				t.Fatal(err)
			}
			var parsed map[string]json.RawMessage
			if err := json.Unmarshal(line, &parsed); err != nil || len(parsed) != 4 {
				t.Errorf("result line %s: %v", line, err)
			}
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := mainErr([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
