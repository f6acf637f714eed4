package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fitingtree"
	"fitingtree/internal/workload"
)

// FlushStallPoint is one measurement of the flush-stall experiment: the
// per-insert latency distribution of a single writer on one facade flush
// mode. Inline mode pays the whole MergeCOW merge on the insert that
// trips the threshold; async mode pays only the O(1) freeze, with the
// merge running on the background flusher.
type FlushStallPoint struct {
	Mode       string  `json:"mode"` // inline | async
	N          int     `json:"n"`
	FlushEvery int     `json:"flush_every"`
	Inserts    int     `json:"inserts"`
	OpsPerSec  float64 `json:"ops_per_sec"` // sustained inserts per second
	P50Ns      float64 `json:"p50_ns"`      // median insert latency
	P99Ns      float64 `json:"p99_ns"`
	P999Ns     float64 `json:"p999_ns"`
	MaxNs      float64 `json:"max_ns"` // worst-case writer stall
}

// flushStallKeys pre-generates a writer's insert stream: uniform random
// keys over the base range, made odd so they never collide with the
// even-spaced base keys.
func flushStallKeys(base []uint64, inserts int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := base[0], base[len(base)-1]
	if hi <= lo {
		hi = lo + 1
	}
	keys := make([]uint64, inserts)
	for i := range keys {
		keys[i] = (lo + uint64(rng.Int63n(int64(hi-lo)))) | 1
	}
	return keys
}

// stallPercentiles summarizes a latency sample (sorted in place).
func stallPercentiles(lat []int64) (p50, p99, p999, max float64) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i])
	}
	return at(0.50), at(0.99), at(0.999), float64(lat[len(lat)-1])
}

// measureFlushStall times every individual insert of a pre-generated
// stream against one facade and returns the latency sample.
func measureFlushStall(o *fitingtree.Optimistic[uint64, uint64], keys []uint64) ([]int64, float64) {
	lat := make([]int64, len(keys))
	start := time.Now()
	for i, k := range keys {
		t0 := time.Now()
		o.Insert(k, k)
		lat[i] = time.Since(t0).Nanoseconds()
	}
	elapsed := time.Since(start).Seconds()
	ops := 0.0
	if elapsed > 0 {
		ops = float64(len(keys)) / elapsed
	}
	return lat, ops
}

// ExtFlushStall is the flush-pipeline extension experiment: one writer
// inserts a random stream into an Optimistic facade while every Insert is
// timed individually, once with the inline flush (the tripping writer
// runs MergeCOW) and once with the asynchronous pipeline (the tripping
// writer freezes the delta; the background flusher merges). The
// interesting column is the tail: inline mode's worst-case stall is the
// full merge cost and grows with n, async mode's tracks the delta-append
// cost. Separating the curves needs a free core for the flusher
// (GOMAXPROCS > 1); on a single core the merge steals the writer's
// timeslice wherever the scheduler lands it, so the tail stays
// merge-sized in both modes.
func ExtFlushStall(w io.Writer, cfg Config) []FlushStallPoint {
	cfg = cfg.withDefaults()
	base := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(base))
	inserts := num2(cfg.N/8, 100_000)
	flushEvery := 1024
	if cfg.Quick {
		inserts = num2(cfg.N/16, 20_000)
	}

	t := NewTable(fmt.Sprintf("Extension: writer flush stall, inline vs async (Weblogs, error=32, delta=%d, GOMAXPROCS=%d)",
		flushEvery, runtime.GOMAXPROCS(0)),
		"mode", "inserts", "Kinserts/s", "p50 ns", "p99 ns", "p99.9 ns", "max ns")
	var points []FlushStallPoint

	for _, mode := range []string{"inline", "async"} {
		tr, err := fitingtree.BulkLoad(base, vals, fitingtree.Options{Error: 32, BufferSize: 8})
		if err != nil {
			panic(err)
		}
		o := fitingtree.NewOptimistic(tr)
		o.SetFlushEvery(flushEvery)
		o.SetAsyncFlush(mode == "async")
		lat, ops := measureFlushStall(o, flushStallKeys(base, inserts, cfg.Seed+173))
		o.Close()
		p50, p99, p999, max := stallPercentiles(lat)
		points = append(points, FlushStallPoint{
			Mode: mode, N: cfg.N, FlushEvery: flushEvery, Inserts: inserts,
			OpsPerSec: ops, P50Ns: p50, P99Ns: p99, P999Ns: p999, MaxNs: max,
		})
		t.Add(mode, inserts, ops/1e3, p50, p99, p999, max)
	}
	t.Print(w)
	return points
}
