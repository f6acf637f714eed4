package main

import (
	"fmt"
	"math/rand/v2"

	"fitingtree/internal/workload"
)

// dataset is one workload's keys, generated from the seed before any
// timing starts. Every stored value equals its key.
type dataset struct {
	bulk  []uint64   // sorted, distinct, bulk-loaded
	never []uint64   // distinct keys no client ever stores
	pools [][]uint64 // per-client held-out keys, disjoint, in insert order
}

// makeDataset draws distinct Weblogs keys and splits them at random into
// the bulk-load set, the never-stored probes and one shuffled insert
// pool per client. All three come from the same distribution, so held-out
// inserts land at random positions across the loaded key space.
func makeDataset(seed int64, bulk, never, pool, clients int) (*dataset, error) {
	total := bulk + never + pool*clients
	var keys []uint64
	for n := total + total/50 + 1024; ; n += n / 2 {
		keys = dedupe(workload.Weblogs(n, seed))
		if len(keys) >= total {
			break
		}
		if n > 4*total {
			return nil, fmt.Errorf("weblogs yields %d distinct keys from %d draws, need %d", len(keys), n, total)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6b657973))
	ds := &dataset{bulk: make([]uint64, 0, bulk)}
	rest := make([]uint64, 0, len(keys)-bulk)
	// Selection sampling keeps exactly bulk keys, in sorted order.
	for i, k := range keys {
		if rng.IntN(len(keys)-i) < bulk-len(ds.bulk) {
			ds.bulk = append(ds.bulk, k)
		} else {
			rest = append(rest, k)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	ds.never = rest[:never:never]
	rest = rest[never:]
	for c := 0; c < clients; c++ {
		ds.pools = append(ds.pools, rest[c*pool:(c+1)*pool:(c+1)*pool])
	}
	return ds, nil
}

// dedupe drops repeated keys from a sorted slice in place.
func dedupe(keys []uint64) []uint64 {
	if len(keys) == 0 {
		return keys
	}
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// opKind is one operation type of a client's stream.
type opKind uint8

const (
	opLookup       opKind = iota // Lookup of a bulk-loaded key: must hit
	opLookupMiss                 // Lookup of a never-stored key: must miss
	opLookupRecent               // Lookup of one of the client's recent inserts
	opScan                       // AscendRange over scanRows bulk-loaded keys
	opInsert                     // Insert of the client's next held-out key
	opDelete                     // Delete of one of the client's live inserts
)

// share is one operation type's percentage of a mix.
type share struct {
	kind opKind
	pct  int
}

// payloadBits is the width of an op code's random payload; the top three
// bits hold the kind.
const payloadBits = 29

// makeOps draws a client's operation stream: each code packs the kind,
// drawn by the mix, with a uniform payload that picks the key. The
// stream is a ring the client cycles through, so its length bounds
// memory rather than run length.
func makeOps(seed int64, client, n int, mix []share) []uint32 {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(client)+1))
	ops := make([]uint32, n)
	for i := range ops {
		x := rng.Uint64()
		pick := int(uint32(x) % 100)
		kind := mix[len(mix)-1].kind
		for _, s := range mix {
			if pick < s.pct {
				kind = s.kind
				break
			}
			pick -= s.pct
		}
		ops[i] = uint32(kind)<<payloadBits | uint32(x>>(64-payloadBits))
	}
	return ops
}

func opOf(code uint32) (opKind, uint32) {
	return opKind(code >> payloadBits), code & (1<<payloadBits - 1)
}

// pick maps a payload uniformly onto [0, n).
func pick(payload uint32, n int) int {
	return int(uint64(payload) * uint64(n) >> payloadBits)
}
