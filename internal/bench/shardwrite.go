package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fitingtree"
	"fitingtree/internal/workload"
)

// ShardWritePoint is one measurement of the multi-writer experiment:
// aggregate insert throughput of one facade at one writer-goroutine count.
type ShardWritePoint struct {
	Facade    string  `json:"facade"` // optimistic | sharded
	Writers   int     `json:"writers"`
	Shards    int     `json:"shards"`       // shard count behind the facade (1 for optimistic)
	OpsPerSec float64 `json:"ops_per_sec"`  // aggregate inserts per second
	Speedup   float64 `json:"speedup_vs_1"` // vs the same facade at 1 writer
	FinalSkew float64 `json:"final_skew"`   // largest shard / mean shard size after the run
	LenM      float64 `json:"len_millions"` // final element count, sanity anchor
}

// shardWriteInserts pre-generates each writer's insert stream: writer w
// draws keys from the w-th quantile range of the base keys (disjoint
// ranges, so on the sharded facade writers land on disjoint shards), made
// odd so they never collide with the even-spaced base keys.
func shardWriteInserts(base []uint64, writers, perWriter int, seed int64) [][]uint64 {
	ins := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)))
		lo := base[len(base)*w/writers]
		hi := base[len(base)-1]
		if w+1 < writers {
			hi = base[len(base)*(w+1)/writers]
		}
		if hi <= lo {
			hi = lo + 1
		}
		ins[w] = make([]uint64, perWriter)
		for i := range ins[w] {
			ins[w][i] = (lo + uint64(rng.Int63n(int64(hi-lo)))) | 1
		}
	}
	return ins
}

// shardWriteRun spawns one goroutine per pre-generated stream and measures
// aggregate inserts per second until every stream is drained.
func shardWriteRun(insert func(k, v uint64), ins [][]uint64) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	total := 0
	for _, stream := range ins {
		total += len(stream)
		wg.Add(1)
		go func(keys []uint64) {
			defer wg.Done()
			for _, k := range keys {
				insert(k, k)
			}
		}(stream)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed == 0 {
		return 0
	}
	return float64(total) / elapsed
}

// ExtShardWrite is the multi-writer extension experiment: aggregate insert
// throughput of a single Optimistic facade (all writers funnel through one
// writer mutex) against a Sharded facade with one shard per max writer
// count (writers on disjoint key ranges take disjoint shard locks) as
// writer goroutines grow. The sharded curve should track available cores;
// the single-writer curve flatlines on its mutex. Scaling beyond 1x
// requires GOMAXPROCS > 1 and free cores.
func ExtShardWrite(w io.Writer, cfg Config) []ShardWritePoint {
	cfg = cfg.withDefaults()
	base := workload.Weblogs(cfg.N, cfg.Seed)
	vals := positions(len(base))

	writerCounts := []int{1, 2, 4, 8}
	perWriter := num2(cfg.N/8, 50_000)
	if cfg.Quick {
		writerCounts = []int{1, 2, 4}
		perWriter = num2(cfg.N/16, 10_000)
	}
	maxShards := writerCounts[len(writerCounts)-1]

	t := NewTable(fmt.Sprintf("Extension: multi-writer insert scaling (Weblogs, error=32, GOMAXPROCS=%d)",
		runtime.GOMAXPROCS(0)),
		"facade", "writers", "shards", "Minserts/s", "speedup", "skew")
	var points []ShardWritePoint

	measure := func(facade string, writers int, base1 float64) float64 {
		ins := shardWriteInserts(base, writers, perWriter, cfg.Seed+91)
		var insert func(k, v uint64)
		shards := 1
		var sizes func() []int
		switch facade {
		case "optimistic":
			tr, err := fitingtree.BulkLoad(base, vals, fitingtree.Options{Error: 32, BufferSize: 8})
			if err != nil {
				panic(err)
			}
			o := fitingtree.NewOptimistic(tr)
			insert = o.Insert
			sizes = func() []int { return []int{o.Len()} }
		case "sharded":
			tr, err := fitingtree.BulkLoad(base, vals, fitingtree.Options{Error: 32, BufferSize: 8})
			if err != nil {
				panic(err)
			}
			s, err := fitingtree.NewSharded(tr, maxShards)
			if err != nil {
				panic(err)
			}
			shards = s.Shards()
			insert = s.Insert
			sizes = s.ShardSizes
		}
		ops := shardWriteRun(insert, ins)
		sp := 1.0 // the 1-writer row is its own baseline
		if base1 > 0 {
			sp = ops / base1
		}
		sz := sizes()
		total, maxSize := 0, 0
		for _, n := range sz {
			total += n
			if n > maxSize {
				maxSize = n
			}
		}
		skew := 1.0
		if total > 0 && len(sz) > 0 {
			skew = float64(maxSize) * float64(len(sz)) / float64(total)
		}
		points = append(points, ShardWritePoint{
			Facade: facade, Writers: writers, Shards: shards,
			OpsPerSec: ops, Speedup: sp, FinalSkew: skew,
			LenM: float64(total) / 1e6,
		})
		t.Add(facade, writers, shards, ops/1e6, sp, skew)
		return ops
	}

	for _, facade := range []string{"optimistic", "sharded"} {
		base1 := 0.0
		for _, writers := range writerCounts {
			ops := measure(facade, writers, base1)
			if writers == 1 {
				base1 = ops
			}
		}
	}
	t.Print(w)
	return points
}
