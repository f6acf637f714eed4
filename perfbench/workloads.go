package main

import (
	"fitingtree"
)

// spec is one workload: its dataset sizes, client count and operation
// mix. Later changes refer to workloads by name.
type spec struct {
	name    string
	why     string
	durable bool // DurableSharded on files; otherwise Optimistic in memory
	bulk    int  // bulk-loaded keys
	never   int  // never-stored keys for missing lookups
	pool    int  // held-out keys per client
	clients int
	mix     []share
	ringLen int // per-client op stream length (a power of two)
	setups  int // timed set-ups per run; setup_s is their median
	// sizeAt is the number of measured writes after which index_bytes
	// and heap_bytes_per_key are taken. Writes reshape the index, so
	// sizes are read after a fixed amount of work rather than at the end
	// of a fixed time, which would charge a faster write path for the
	// extra writes it fits in.
	sizeAt int
}

// scanRows is the number of bulk-loaded keys an AscendRange spans.
const scanRows = 100

// recentRing is how many of its latest inserts an ingest client looks up.
const recentRing = 4096

// syncEvery is the durable workload's per-shard group-commit batch.
const syncEvery = 16

// durableShards is the durable workload's shard count.
const durableShards = 2

// indexOptions is the paper's per-segment buffer configuration.
var indexOptions = fitingtree.Options{Error: 100, BufferSize: -1}

var specs = []spec{
	{
		name: "lookup-heavy",
		why: "Optimistic, 8M Weblogs keys (~128 MB) far beyond per-core cache: router descent and in-page search dominate; " +
			"folds are rare, so write-path changes should not move it",
		bulk: 8_000_000, never: 1 << 16, pool: 2_000_000, clients: 2,
		mix:     []share{{opLookup, 81}, {opLookupMiss, 9}, {opScan, 5}, {opInsert, 5}},
		ringLen: 1 << 22, setups: 5, sizeAt: 80_000,
	},
	{
		name: "ingest",
		why: "Optimistic, 1M keys, shuffled inserts at random positions: delta copy, merge ladder and fold dominate; " +
			"reads hit the delta overlay, so router changes should not move it",
		bulk: 1_000_000, never: 1 << 10, pool: 4_000_000, clients: 1,
		mix:     []share{{opInsert, 70}, {opDelete, 10}, {opLookupRecent, 20}},
		ringLen: 1 << 22, setups: 7, sizeAt: 200_000,
	},
	{
		name: "durable",
		why: "DurableSharded on files, 2 shards: WAL append, group-commit fsync, checkpoint, recovery and per-shard " +
			"writers; the only workload touching them",
		durable: true,
		bulk:    1_000_000, never: 1 << 10, pool: 1_000_000, clients: 2,
		mix:     []share{{opInsert, 50}, {opDelete, 5}, {opLookup, 45}},
		ringLen: 1 << 21, setups: 7, sizeAt: 40_000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
