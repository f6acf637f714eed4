package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"fitingtree"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
	"fitingtree/internal/workload"
)

// ShardRecoveryPoint is one measurement of the sharded-durability
// extension experiment: a full OpenDurableSharded — cross-shard manifest
// load, per-shard checkpoint chunks, per-shard WAL tail replay — against
// the shard count, next to the in-memory bulk-load lower bound (which
// assumes the sorted arrays survived the crash; no real recovery has
// them).
type ShardRecoveryPoint struct {
	Shards    int     `json:"shards"`
	N         int     `json:"n"`
	WALTail   int     `json:"wal_tail"`   // records replayed, summed over shards
	RecoverNs float64 `json:"recover_ns"` // mean OpenDurableSharded wall time
	RebuildNs float64 `json:"rebuild_ns"` // mean in-memory BulkLoad wall time (lower bound)
}

// shardRecoveryStore builds a sharded durable store holding n Weblogs
// keys across shards partitions: one full cross-shard checkpoint plus a
// WAL tail of exactly tail un-checkpointed inserts scattered over the
// whole key range (so every shard's log carries a slice of it). The
// facade is abandoned (not closed) so the store stays in the mid-run
// shape recovery would find after a crash.
func shardRecoveryStore(n, tail, shards int, seed int64) (*wal.MemFS, *pager.Disk, error) {
	keys := workload.Weblogs(n, seed)
	vals := positions(len(keys))
	tr, err := fitingtree.BulkLoad(keys, vals, recoveryOpts)
	if err != nil {
		return nil, nil, err
	}
	fs := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := fitingtree.CreateDurableSharded(fs, dev, tr, shards)
	if err != nil {
		return nil, nil, err
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetRebalanceFactor(math.Inf(1)) // keep the checkpointed fences fixed
	d.SetSyncEvery(256)
	maxKey := keys[len(keys)-1]
	rng := rand.New(rand.NewSource(seed + int64(tail)))
	for i := 0; i < tail; i++ {
		if err := d.Insert(uint64(rng.Int63n(int64(maxKey))), uint64(i)); err != nil {
			return nil, nil, err
		}
	}
	if err := d.Sync(); err != nil {
		return nil, nil, err
	}
	return fs, dev, nil
}

// ExtShardRecovery is the sharded-durability extension experiment: crash
// recovery cost of the sharded facade as the shard count grows, with the
// data and the WAL tail held fixed. The per-shard checkpoint cuts and
// logs partition the same work, so recovery should stay flat (or dip as
// per-shard replay batches shrink) rather than grow with the shard
// count — the cross-shard cut adds one manifest, not S of anything
// expensive. The in-memory rebuild column is the same lower bound the
// single-tree experiment reports (it assumes the sorted arrays survived
// the crash); the claim here is the flat shard-count curve relative to
// it, not beating it.
func ExtShardRecovery(w io.Writer, cfg Config) []ShardRecoveryPoint {
	cfg = cfg.withDefaults()
	n := cfg.N
	tail := 50_000
	shardCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		tail = 10_000
		shardCounts = []int{1, 4}
	}
	if tail >= n {
		tail = n / 10
	}

	keys := workload.Weblogs(n, cfg.Seed)
	vals := positions(len(keys))
	rebuildNs := measureWindow(cfg.MinMeasure, func() {
		if _, err := fitingtree.BulkLoad(keys, vals, recoveryOpts); err != nil {
			panic(err)
		}
	})

	var points []ShardRecoveryPoint
	t := NewTable("Extension: sharded recovery vs shard count (Weblogs, error=8, fixed WAL tail)",
		"shards", "n", "wal tail", "recover ms", "rebuild ms", "rebuild/recover")
	for _, shards := range shardCounts {
		fs, dev, err := shardRecoveryStore(n, tail, shards, cfg.Seed)
		if err != nil {
			panic(err)
		}
		walTail := 0
		recoverNs := measureWindow(cfg.MinMeasure, func() {
			d, err := fitingtree.OpenDurableSharded[uint64, uint64](fs, dev, fitingtree.Options{}, shards)
			if err != nil {
				panic(err)
			}
			d.SetAutoCheckpoint(false)
			if d.Len() != n+tail {
				panic(fmt.Sprintf("recovered %d elements, want %d", d.Len(), n+tail))
			}
			walTail = d.WALRecords()
		})
		points = append(points, ShardRecoveryPoint{
			Shards: shards, N: n, WALTail: walTail,
			RecoverNs: recoverNs, RebuildNs: rebuildNs,
		})
		t.Add(shards, n, walTail,
			fmt.Sprintf("%.1f", recoverNs/1e6),
			fmt.Sprintf("%.1f", rebuildNs/1e6),
			fmt.Sprintf("%.1fx", rebuildNs/recoverNs))
	}
	t.Print(w)
	return points
}
