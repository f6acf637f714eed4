package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"fitingtree"
	"fitingtree/internal/workload"
)

// BurstPoint is one measurement of the burst experiment: a single writer
// issuing back-to-back insert bursts against one ladder depth, with an
// idle drain between bursts. Each burst is sized to overrun a depth-1
// pipeline — one frozen slot plus the absorb window — so at depth 1 the
// tripping writer is forced into inline backpressure folds, while a
// deeper ladder absorbs the same burst entirely as O(1) layer pushes.
type BurstPoint struct {
	Depth      int     `json:"depth"` // SetMaxFrozenLayers
	FlushEvery int     `json:"flush_every"`
	Bursts     int     `json:"bursts"`
	BurstSize  int     `json:"burst_size"`
	Inserts    int     `json:"inserts"`
	OpsPerSec  float64 `json:"ops_per_sec"` // sustained inserts/s within bursts
	P99Ns      float64 `json:"p99_ns"`
	MaxNs      float64 `json:"max_ns"`             // worst-case writer stall
	BPFolds    uint64  `json:"backpressure_folds"` // inline folds forced on writers
}

// ExtBurst is the merge-ladder extension experiment: the same bursty
// writer runs against ladder depths 1, 2, and 4. Burst size is
// 5.5 × flushEvery: a depth-1 pipeline holds at most one frozen layer
// plus FlushBackpressureFactor × flushEvery absorbed writes (5 ×
// flushEvery total), so every burst overruns it and the tripping writer
// pays an inline fold — visible as backpressure_folds > 0 and a
// merge-sized max stall. Depth 2 already holds the burst (2 layers +
// 3.5 × flushEvery absorbed), so writers never fold inline and the tail
// stays append-sized; the background compactor folds during the
// inter-burst drain.
func ExtBurst(w io.Writer, cfg Config) []BurstPoint {
	cfg = cfg.withDefaults()
	base := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(base))
	// A small trip threshold keeps the absorb window (FlushBackpressureFactor
	// × flushEvery appends, a few ms) well under the background fold cost at
	// this n, so a depth-1 pipeline cannot hide behind the worker: the burst
	// fills the window before the fold lands.
	flushEvery := 256
	burstSize := flushEvery*5 + flushEvery/2
	bursts := 32
	if cfg.Quick {
		bursts = 8
	}
	keys := flushStallKeys(base, bursts*burstSize, cfg.Seed+291)

	t := NewTable(fmt.Sprintf("Extension: bursty writer vs ladder depth (Weblogs, error=32, delta=%d, burst=%d, GOMAXPROCS=%d)",
		flushEvery, burstSize, runtime.GOMAXPROCS(0)),
		"depth", "bursts", "Kinserts/s", "p99 ns", "max ns", "bp folds")
	var points []BurstPoint

	for _, depth := range []int{1, 2, 4} {
		tr, err := fitingtree.BulkLoad(base, vals, fitingtree.Options{Error: 32, BufferSize: 8})
		if err != nil {
			panic(err)
		}
		o := fitingtree.NewOptimistic(tr)
		o.SetAsyncFlush(true)
		o.SetFlushEvery(flushEvery)
		o.SetMaxFrozenLayers(depth)

		lat := make([]int64, 0, bursts*burstSize)
		var busy time.Duration
		for b := 0; b < bursts; b++ {
			stream := keys[b*burstSize : (b+1)*burstSize]
			start := time.Now()
			for _, k := range stream {
				t0 := time.Now()
				o.Insert(k, k)
				lat = append(lat, time.Since(t0).Nanoseconds())
			}
			busy += time.Since(start)
			// The idle gap between bursts: drain the ladder so every burst
			// starts from the same clean state at every depth.
			o.SyncFlush()
		}
		folds := o.BackpressureFolds()
		o.Close()

		ops := 0.0
		if s := busy.Seconds(); s > 0 {
			ops = float64(len(lat)) / s
		}
		_, p99, _, max := stallPercentiles(lat)
		points = append(points, BurstPoint{
			Depth: depth, FlushEvery: flushEvery, Bursts: bursts, BurstSize: burstSize,
			Inserts: len(lat), OpsPerSec: ops, P99Ns: p99, MaxNs: max, BPFolds: folds,
		})
		t.Add(depth, bursts, ops/1e3, p99, max, folds)
	}
	t.Print(w)
	return points
}
