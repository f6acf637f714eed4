package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"fitingtree/internal/btree"
	"fitingtree/internal/core"
	"fitingtree/internal/workload"
)

// FlushPubPoint is one measurement of the flush-publication experiment:
// the cost of publishing one MergeCOW'd tree — persistent router clone,
// dirty-chunk re-cut, chunk-spine copy — at a given base size and delta
// size. The headline claim is in the column pairs at fixed delta: with the
// persistent router and chunked chain, PublishNs must stay near-flat as
// Segments grows, where the pre-chunked design grew linearly (router
// rebuild + page-array copy per flush).
type FlushPubPoint struct {
	N            int     `json:"n"`
	Segments     int     `json:"segments"`      // pages in the base tree
	Chunks       int     `json:"chunks"`        // chain chunks in the base tree
	Delta        int     `json:"delta"`         // distinct keys folded per publication
	PublishNs    float64 `json:"publish_ns"`    // mean wall time of one MergeCOW
	NsPerDirty   float64 `json:"ns_per_dirty"`  // PublishNs / Delta
	SharedChunks float64 `json:"shared_chunks"` // fraction of chunks shared with the parent
	SharedPages  float64 `json:"shared_pages"`  // fraction of pages shared with the parent
	// RouterRebuildNs is the retired per-flush overhead for reference: the
	// time to bulk-load a fresh B+ tree over the base tree's routing
	// entries, which the pre-chunked design paid on every publication (on
	// top of the dirty-page work) regardless of delta size.
	RouterRebuildNs float64 `json:"router_rebuild_ns"`
}

// flushPubOps builds a MergeCOW op list of `delta` distinct uniform random
// insert keys over the tree's key range.
func flushPubOps(tr *core.Tree[uint64, uint64], delta int, seed int64) []core.MergeOp[uint64, uint64] {
	maxKey, _, _ := tr.Max()
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	ops := make([]core.MergeOp[uint64, uint64], 0, delta)
	for len(ops) < delta {
		k := uint64(rng.Int63n(int64(maxKey)))
		if seen[k] {
			continue
		}
		seen[k] = true
		ops = append(ops, core.MergeOp[uint64, uint64]{Key: k, Adds: []uint64{k}})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	return ops
}

// measureRouterRebuild times one from-scratch bulk load of a B+ tree over
// the tree's per-page routing keys — the O(segments) work the pre-chunked
// MergeCOW performed on every flush and the persistent router retires.
// Equal-start page runs register one entry, exactly as routedEntries did.
func measureRouterRebuild(tr *core.Tree[uint64, uint64], window time.Duration) float64 {
	starts, _ := tr.PageBounds()
	keys := make([]uint64, 0, len(starts))
	vals := make([]int, 0, len(starts))
	for i, s := range starts {
		if i == 0 || starts[i-1] != s {
			keys = append(keys, s)
			vals = append(vals, i)
		}
	}
	iters := 0
	begin := time.Now()
	for time.Since(begin) < window {
		rt := btree.New[uint64, int](btree.DefaultOrder)
		if err := rt.BulkLoad(keys, vals, 1); err != nil {
			panic(err)
		}
		iters++
	}
	return float64(time.Since(begin).Nanoseconds()) / float64(iters)
}

// sharedFraction reports which fraction of ids also appears in base.
func sharedFraction(ids, base []uint64) float64 {
	if len(ids) == 0 {
		return 0
	}
	in := make(map[uint64]bool, len(base))
	for _, id := range base {
		in[id] = true
	}
	shared := 0
	for _, id := range ids {
		if in[id] {
			shared++
		}
	}
	return float64(shared) / float64(len(ids))
}

// ExtFlushPub is the flush-publication extension experiment: it sweeps the
// base size (so the segment count grows ~16x across the sweep) at several
// fixed delta sizes and times core.MergeCOW — the whole publication path
// the Optimistic facade's flusher runs: dirty-interval discovery, region
// re-segmentation, chunk re-cut, persistent router update, chunk-spine
// copy. Before this PR the publication rebuilt the router and copied the
// page array (both O(segments)); now only the chunk spine (segments /
// chunkTarget pointers) scales with the tree, so the per-delta rows should
// read near-flat while Segments grows.
func ExtFlushPub(w io.Writer, cfg Config) []FlushPubPoint {
	cfg = cfg.withDefaults()
	sizes := []int{cfg.N / 16, cfg.N / 4, cfg.N}
	deltas := []int{64, 1024, 4096}
	if cfg.Quick {
		deltas = []int{64, 1024}
	}

	t := NewTable("Extension: flush publication cost vs tree size (Weblogs, error=8, random insert deltas)",
		"n", "segments", "chunks", "delta", "publish us", "ns/dirty key", "chunks shared", "pages shared", "retired rebuild us")
	var points []FlushPubPoint

	for _, n := range sizes {
		if n < 1024 {
			continue
		}
		keys := workload.Weblogs(n, cfg.Seed)
		vals := positions(len(keys))
		tr, err := core.BulkLoad(keys, vals, core.Options{Error: 8, BufferSize: 4})
		if err != nil {
			panic(err)
		}
		segments := tr.Stats().Pages
		chunks := tr.Stats().Chunks
		basePages := tr.PageIDs()
		baseChunks := tr.ChunkIDs()
		rebuildNs := measureRouterRebuild(tr, cfg.MinMeasure)
		for _, delta := range deltas {
			ops := flushPubOps(tr, delta, cfg.Seed+int64(delta))
			merged := tr.MergeCOW(ops) // one untimed run for the sharing stats
			sharedC := sharedFraction(merged.ChunkIDs(), baseChunks)
			sharedP := sharedFraction(merged.PageIDs(), basePages)

			iters := 0
			start := time.Now()
			for time.Since(start) < cfg.MinMeasure {
				if tr.MergeCOW(ops).Len() != n+delta {
					panic("bad publication")
				}
				iters++
			}
			perOp := float64(time.Since(start).Nanoseconds()) / float64(iters)

			points = append(points, FlushPubPoint{
				N: n, Segments: segments, Chunks: chunks, Delta: delta,
				PublishNs: perOp, NsPerDirty: perOp / float64(delta),
				SharedChunks: sharedC, SharedPages: sharedP,
				RouterRebuildNs: rebuildNs,
			})
			t.Add(n, segments, chunks, delta,
				fmt.Sprintf("%.1f", perOp/1e3),
				fmt.Sprintf("%.0f", perOp/float64(delta)),
				fmt.Sprintf("%.1f%%", sharedC*100),
				fmt.Sprintf("%.1f%%", sharedP*100),
				fmt.Sprintf("%.1f", rebuildNs/1e3))
		}
	}
	t.Print(w)
	return points
}
