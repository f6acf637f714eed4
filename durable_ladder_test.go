package fitingtree

// Crash-consistency tests for the durability layer with the frozen merge
// ladder engaged: the PR 6 matrices ran the facade in inline-flush mode,
// so no in-memory reorganization was ever in flight at a fault site. Here
// the worker slot is held and the compaction scheduler is driven by hand
// between scripted ops, so every WAL and device fault lands while the
// ladder holds stacked layers that compactions keep rewriting — none of
// which must ever matter to recovery, because compactions are
// content-preserving and only acknowledged WAL records are durable state.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// ladderDurable opens a Durable configured so ladder states pile up
// deterministically: async flush with the worker slot held, a small trip
// threshold, depth 3.
func ladderDurable(t testing.TB, fsys wal.FS, dev pager.Device) *Durable[int, int] {
	t.Helper()
	d, err := OpenDurable[int, int](fsys, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(true)
	d.SetFlushEvery(4)
	d.SetMaxFrozenLayers(3)
	soleOpt(d).flusher.Store(true) // the script is the scheduler
	return d
}

// pumpLadder runs compaction-scheduler rounds by hand: one round whenever
// at least two layers are stacked (keeping a compaction in flight across
// the script), then however many more it takes to bring the ladder back
// below capacity so the next trip pushes instead of absorbing. Returns
// the number of rounds run.
func pumpLadder(o *Optimistic[int, int]) int {
	rounds := 0
	step := func() bool {
		st := o.state.Load()
		if len(st.frozen) < 2 {
			return false
		}
		if i := compactPick(st.frozen, o.flushAt.Load()); i >= 0 {
			o.compactPair(st, i)
		} else {
			o.foldBottom(st)
		}
		rounds++
		return true
	}
	step()
	for len(o.state.Load().frozen) >= int(o.maxFrozen.Load()) {
		if !step() {
			break
		}
	}
	return rounds
}

// runLadderScript is runScript with a scheduler pump before every op, so
// fault sites interleave with layer pushes, compactions and folds.
func runLadderScript(d *Durable[int, int], ops []dOp, ckptAt map[int]bool) (acked int, states []*dmodel) {
	m := &dmodel{}
	states = append(states, m.clone())
	for i, op := range ops {
		pumpLadder(soleOpt(d))
		if ckptAt[i] {
			d.Checkpoint() // folds the whole ladder off-lock for the snapshot
		}
		var err error
		if op.del {
			_, err = d.Delete(op.k)
		} else {
			err = d.Insert(op.k, op.v)
		}
		if op.del {
			m.delete(op.k)
		} else {
			m.insert(op.k, op.v)
		}
		states = append(states, m.clone())
		if err != nil {
			return acked, states[:i+2]
		}
		acked = i + 1
	}
	return acked, states
}

// TestCrashMatrixWALLadder kills the WAL file system at every mutating
// operation while ladder compactions are in flight, then crashes away
// unsynced bytes and asserts prefix-consistent recovery with no
// acknowledged write lost.
func TestCrashMatrixWALLadder(t *testing.T) {
	ops, ckptAt := crashScript()

	probeMem := wal.NewMemFS()
	probeFS := wal.NewFaultFS(probeMem)
	d := ladderDurable(t, probeFS, pager.NewDisk())
	// Probe run mirroring runLadderScript, counting scheduler rounds to
	// prove the matrix really runs over in-flight compactions.
	rounds := 0
	for i, op := range ops {
		rounds += pumpLadder(soleOpt(d))
		if ckptAt[i] {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if op.del {
			_, err = d.Delete(op.k)
		} else {
			err = d.Insert(op.k, op.v)
		}
		if err != nil {
			t.Fatalf("probe op %d: %v", i, err)
		}
	}
	if rounds == 0 {
		t.Fatal("probe run never ran a compaction round: the matrix would be vacuous")
	}
	sites := probeFS.Ops()
	if sites < 2*len(ops) {
		t.Fatalf("probe counted only %d WAL fault sites", sites)
	}

	for trip := 0; trip < sites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("trip=%d", trip), func(t *testing.T) {
			mem := wal.NewMemFS()
			faulty := wal.NewFaultFS(mem)
			d := ladderDurable(t, faulty, pager.NewDisk())
			faulty.SetTrip(trip)
			acked, states := runLadderScript(d, ops, ckptAt)
			mem.Crash()
			verifyRecovery(t, "wal ladder crash", mem, devOf(d), acked, states)
		})
	}
}

// TestCrashMatrixCheckpointLadder kills the checkpoint device at every
// page write and sync while the ladder holds stacked layers — the
// checkpoint folds them off-lock for its snapshot, so a torn checkpoint
// must leave the previous superblock plus the intact WAL sufficient.
func TestCrashMatrixCheckpointLadder(t *testing.T) {
	ops, ckptAt := crashScript()

	probeDev := pager.NewFaultDevice(pager.NewDisk())
	d := ladderDurable(t, wal.NewMemFS(), probeDev)
	if acked, _ := runLadderScript(d, ops, ckptAt); acked != len(ops) {
		t.Fatalf("probe run acknowledged %d/%d ops", acked, len(ops))
	}
	sites := probeDev.Ops()
	if sites == 0 {
		t.Fatal("probe counted no device fault sites")
	}

	for trip := 0; trip < sites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("trip=%d", trip), func(t *testing.T) {
			mem := wal.NewMemFS()
			inner := pager.NewDisk()
			faulty := pager.NewFaultDevice(inner)
			d := ladderDurable(t, mem, faulty)
			faulty.SetTrip(trip)
			acked, states := runLadderScript(d, ops, ckptAt)
			mem.Crash()
			verifyRecovery(t, "ckpt ladder crash", mem, inner, acked, states)
		})
	}
}

// TestRecoveryBatchedReplay pins the replay restructure: a long
// checkpoint-free WAL tail must be folded into the base tree as one
// sorted batch, not replayed one record at a time. The recovered tree's
// own maintenance counters are the witness — a record-at-a-time replay
// scores one merge per record, the batched fold at most one
// re-segmentation pass per chunk.
func TestRecoveryBatchedReplay(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)

	const records = 640
	m := &dmodel{}
	for i := 0; i < records; i++ {
		k := (i * 7) % 97 // heavy duplication across a small keyspace
		if i%5 == 4 {
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
			m.delete(k)
		} else {
			if err := d.Insert(k, k*31); err != nil { // same value per key: set equality
				t.Fatal(err)
			}
			m.insert(k, k*31)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mem.Crash() // no checkpoint ever ran: recovery is pure tail replay

	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if !pairsEqual(dump(rec), m.pairs) {
		t.Fatal("batched replay recovered the wrong content")
	}
	tree := soleOpt(rec).state.Load().tree
	c := tree.Counters()
	chunks := len(tree.ChunkIDs())
	if c.Merges > chunks {
		t.Fatalf("replay of %d records cost %d merges over %d chunks: tail not batched", records, c.Merges, chunks)
	}
	if c.Inserts != 0 && c.Inserts < 97-20 {
		t.Fatalf("replayed tree counters implausible: %+v", c)
	}
}

// TestDurableLadderCheckpointStress races a single durable writer against
// the live background compactor, the auto-checkpointer, and concurrent
// readers (run with -race), then closes and reopens: the recovered
// content must equal the model exactly — every acknowledged write
// survives whatever interleaving of pushes, compactions, folds and
// checkpoints occurred.
func TestDurableLadderCheckpointStress(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAsyncFlush(true)
	d.SetMaxFrozenLayers(4)
	d.SetFlushEvery(16)
	d.SetSyncEvery(8)
	d.SetAutoCheckpoint(true)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := rng.Intn(400)
			d.Lookup(k)
			d.Each(k, func(int) bool { return true })
			if rng.Intn(16) == 0 {
				d.AscendRange(0, 1<<30, func(int, int) bool { return true })
				d.Stats()
			}
		}
	}()

	m := &dmodel{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4000; i++ {
		k := rng.Intn(400)
		if rng.Intn(4) == 0 {
			if _, err := d.Delete(k); err != nil {
				t.Fatal(err)
			}
			m.delete(k)
		} else {
			if err := d.Insert(k, k*31); err != nil { // same value per key
				t.Fatal(err)
			}
			m.insert(k, k*31)
		}
	}
	close(stop)
	readers.Wait()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(dump(d), m.pairs) {
		t.Fatal("live content diverged from the model")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if !pairsEqual(dump(rec), m.pairs) {
		t.Fatal("recovered content diverged from the model")
	}
}
