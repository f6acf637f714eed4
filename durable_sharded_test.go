package fitingtree

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// --- scenario -------------------------------------------------------------

// dumpSharded extracts a DurableSharded's full content in the model's
// normalized form.
func dumpSharded(d *DurableSharded[int, int]) [][2]int {
	var pairs [][2]int
	d.AscendRange(-1<<62, 1<<62, func(k, v int) bool {
		pairs = append(pairs, [2]int{k, v})
		return true
	})
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	return pairs
}

// shardedCrashScript is a fixed op sequence that scatters keys across the
// whole range (so every shard of a multi-shard facade sees traffic), with
// duplicates (same value per key), deletes, interleaved checkpoints, and
// one explicit rebalance in the middle.
func shardedCrashScript() (ops []dOp, ckptAt, rebalAt map[int]bool) {
	// Stride 997 over a 4096-key space: adjacent ops land on far-apart
	// keys, exercising every shard in turn.
	for i := 0; i < 40; i++ {
		k := (i * 997) % 4096
		ops = append(ops, dOp{k: k, v: k * 10})
		if i%7 == 0 {
			ops = append(ops, dOp{k: k, v: k * 10}) // duplicate, same value
		}
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, dOp{del: true, k: (i * 3 * 997) % 4096})
	}
	ckptAt = map[int]bool{11: true, 37: true}
	rebalAt = map[int]bool{24: true}
	return ops, ckptAt, rebalAt
}

// newShardedUnderTest opens a deterministic facade for the crash matrix:
// no background checkpoints, no async flush, no skew-triggered
// migrations — every fault site is reached by the script alone.
func newShardedUnderTest(t testing.TB, fsys wal.FS, dev pager.Device, shards int) *DurableSharded[int, int] {
	t.Helper()
	d, err := OpenDurableSharded[int, int](fsys, dev, Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, d)
	return d
}

// quiesce puts a facade into the crash matrix's deterministic mode.
func quiesce(t testing.TB, d *DurableSharded[int, int]) {
	t.Helper()
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetFlushEvery(8)
	d.SetRebalanceFactor(math.Inf(1))
}

// seedSharded bulk-creates a genuinely multi-shard store (a fresh Open
// starts with one shard; the matrices need traffic on several), returning
// the facade and the matching initial model. Keys are spaced so the
// script's stride interleaves with them; values follow the script's
// k*10 convention so duplicate deletes stay value-agnostic.
func seedSharded(t testing.TB, fsys wal.FS, dev pager.Device, shards int) (*DurableSharded[int, int], *dmodel) {
	t.Helper()
	keys := make([]int, 256)
	vals := make([]int, len(keys))
	for i := range keys {
		keys[i] = i * 16
		vals[i] = keys[i] * 10
	}
	tree, err := BulkLoad(keys, vals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(fsys, dev, tree, shards)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, d)
	if n := d.Shards(); n != shards {
		t.Fatalf("seeded %d shards, want %d", n, shards)
	}
	m := &dmodel{}
	for i, k := range keys {
		m.insert(k, vals[i])
	}
	return d, m
}

// runShardedScript drives the facade through the script from the initial
// model state m, stopping at the first error (injected faults poison
// everything after it anyway). It returns the number of ops acknowledged
// and the model state after every prefix. Checkpoint and Rebalance
// failures are ignored: neither is an acknowledgment, and the WAL still
// covers the data either way.
func runShardedScript(d *DurableSharded[int, int], m *dmodel, ops []dOp, ckptAt, rebalAt map[int]bool) (acked int, states []*dmodel) {
	states = append(states, m.clone())
	for i, op := range ops {
		if ckptAt[i] {
			d.Checkpoint()
		}
		if rebalAt[i] {
			d.Rebalance()
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

// verifyShardedRecovery reopens the (injector-free) store and asserts the
// recovered state equals the model after some prefix of at least the
// acknowledged ops, and that the recovered tree is structurally sound.
func verifyShardedRecovery(t *testing.T, label string, fsys wal.FS, dev pager.Device, shards, acked int, states []*dmodel) {
	t.Helper()
	rec, err := OpenDurableSharded[int, int](fsys, dev, Options{}, shards)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	rec.SetAutoCheckpoint(false)
	got := dumpSharded(rec)
	for m := len(states) - 1; m >= 0; m-- {
		if pairsEqual(got, states[m].pairs) {
			if m < acked {
				t.Fatalf("%s: recovered only %d ops but %d were acknowledged", label, m, acked)
			}
			return
		}
	}
	t.Fatalf("%s: recovered state (%d pairs) matches no op prefix (acked %d)", label, len(got), acked)
}

// --- smoke ----------------------------------------------------------------

// TestDurableShardedBasic covers the healthy round trip: writes scattered
// over several shards, a checkpoint, more writes, recovery replaying the
// tails, and read-path parity with a model.
func TestDurableShardedBasic(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d := newShardedUnderTest(t, mem, dev, 4)
	for i := 0; i < 500; i++ {
		if err := d.Insert((i*997)%4096, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := d.WALRecords(); n != 0 {
		t.Fatalf("WAL holds %d records after checkpoint", n)
	}
	for i := 500; i < 600; i++ {
		if err := d.Insert((i*997)%4096, i); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := d.Delete((3 * 997) % 4096); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	want := dumpSharded(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec := newShardedUnderTest(t, mem, dev, 4)
	if got := dumpSharded(rec); !pairsEqual(got, want) {
		t.Fatalf("recovered %d pairs, want %d", len(got), len(want))
	}
	// Close checkpointed, so the reopened logs were empty.
	for i, st := range rec.WALOpenStats() {
		if st.Records != 0 {
			t.Fatalf("shard %d log held %d records after Close", i, st.Records)
		}
	}
	vals, oks := rec.LookupBatch([]int{997 % 4096, 4095, -7})
	if !oks[0] || oks[2] {
		t.Fatalf("batch lookup: %v %v", vals, oks)
	}
}

// TestCreateDurableSharded checks bulk import: the tree is split across
// shards, the initial cut commits without WAL traffic, and recovery gets
// everything back through the multi-shard manifest.
func TestCreateDurableSharded(t *testing.T) {
	keys := make([]int, 5000)
	vals := make([]int, len(keys))
	for i := range keys {
		keys[i], vals[i] = i*3, i
	}
	tree, err := BulkLoad(keys, vals, Options{Error: 16})
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := CreateDurableSharded(mem, dev, tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Shards(); n != 4 {
		t.Fatalf("bulk import built %d shards, want 4", n)
	}
	if n := d.WALRecords(); n != 0 {
		t.Fatalf("bulk import appended %d WAL records", n)
	}
	sizes := d.ShardSizes()
	for i, n := range sizes {
		if n < len(keys)/8 {
			t.Fatalf("shard %d holds only %d of %d elements: %v", i, n, len(keys), sizes)
		}
	}
	if err := d.Insert(1, -1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec := newShardedUnderTest(t, mem, dev, 4)
	if rec.Len() != len(keys)+1 {
		t.Fatalf("recovered %d elements, want %d", rec.Len(), len(keys)+1)
	}
	if v, ok := rec.Lookup(1); !ok || v != -1 {
		t.Fatalf("post-import insert lost: %v %v", v, ok)
	}
	if v, ok := rec.Lookup(keys[4321]); !ok || v != 4321 {
		t.Fatalf("bulk key lost: %v %v", v, ok)
	}
}

// TestDurableShardedRebalance checks the happy-path migration: fences
// move, the generation advances, old logs disappear, data survives a
// post-migration crash and recovery.
func TestDurableShardedRebalance(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d := newShardedUnderTest(t, mem, dev, 3)
	// Heavily skewed load: everything lands in the last shard's range.
	for i := 0; i < 1000; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if g := d.Generation(); g != 0 {
		t.Fatalf("generation %d before any rebalance", g)
	}
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if g := d.Generation(); g != 1 {
		t.Fatalf("generation %d after rebalance, want 1", g)
	}
	if n := d.Shards(); n != 3 {
		t.Fatalf("%d shards after rebalance, want 3", n)
	}
	sizes := d.ShardSizes()
	for i, n := range sizes {
		if n < 1000/6 {
			t.Fatalf("shard %d still skewed after rebalance: %v", i, sizes)
		}
	}
	// The old generation's logs and the intent are gone.
	for _, name := range mem.Names() {
		if strings.HasPrefix(name, "wal-0-") || name == IntentName {
			t.Fatalf("stale file %q survived the migration", name)
		}
	}
	// Post-migration writes land in generation-1 logs and survive a crash.
	for i := 1000; i < 1100; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()
	rec := newShardedUnderTest(t, mem, dev, 3)
	if rec.Len() != 1100 {
		t.Fatalf("recovered %d elements, want 1100", rec.Len())
	}
	if g := rec.Generation(); g != 1 {
		t.Fatalf("recovered generation %d, want 1", g)
	}
}

// TestDurableShardedAutoRebalance checks that the skew trigger fires on
// the write path and commits a durable migration without any explicit
// call.
func TestDurableShardedAutoRebalance(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetSyncEvery(64)
	for i := 0; i < 3000; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if g := d.Generation(); g == 0 {
		t.Fatal("skewed load never triggered a migration")
	}
	if n := d.Shards(); n != 3 {
		t.Fatalf("%d shards after auto rebalance, want 3", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec := newShardedUnderTest(t, mem, dev, 3)
	if rec.Len() != 3000 {
		t.Fatalf("recovered %d elements, want 3000", rec.Len())
	}
}

// --- crash matrices -------------------------------------------------------

// TestShardedCrashMatrixWAL kills the whole log file system at every
// mutating operation of the sharded script — mid-append on any shard,
// mid-sync, mid-truncate, mid-intent, mid-migration — then crashes away
// unsynced bytes and asserts prefix-consistent recovery with no
// acknowledged write lost. The three-shard matrix runs at the top level;
// the one-shard row (the engine behind Durable, crossing the same
// explicit rebalance) runs under shards=1.
func TestShardedCrashMatrixWAL(t *testing.T) {
	shardedCrashMatrixWAL(t, 3)
	t.Run("shards=1", func(t *testing.T) { shardedCrashMatrixWAL(t, 1) })
}

func shardedCrashMatrixWAL(t *testing.T, shards int) {
	ops, ckptAt, rebalAt := shardedCrashScript()

	probeFS := wal.NewFaultFS(wal.NewMemFS())
	d, m := seedSharded(t, probeFS, pager.NewDisk(), shards)
	probeFS.SetTrip(-1) // reset the counter: only script-time sites matter
	if acked, _ := runShardedScript(d, m, ops, ckptAt, rebalAt); acked != len(ops) {
		t.Fatalf("probe run acknowledged %d/%d ops", acked, len(ops))
	}
	sites := probeFS.Ops()
	if sites < 2*len(ops) {
		t.Fatalf("probe counted only %d WAL fault sites", sites)
	}

	for trip := 0; trip < sites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			faulty := wal.NewFaultFS(mem)
			dev := pager.NewDisk()
			d, m := seedSharded(t, faulty, dev, shards)
			faulty.SetTrip(trip)
			acked, states := runShardedScript(d, m, ops, ckptAt, rebalAt)
			mem.Crash()
			verifyShardedRecovery(t, "wal crash", mem, dev, shards, acked, states)
		})
	}
}

// TestShardedCrashMatrixCheckpoint kills the checkpoint device at every
// page write and sync — mid-blob, mid-manifest, mid-superblock, and
// anywhere inside the rebalance's committing cut — and asserts the
// previous committed epoch plus the intact logs still recover every
// acknowledged write. Shard counts as in TestShardedCrashMatrixWAL.
func TestShardedCrashMatrixCheckpoint(t *testing.T) {
	shardedCrashMatrixCheckpoint(t, 3)
	t.Run("shards=1", func(t *testing.T) { shardedCrashMatrixCheckpoint(t, 1) })
}

func shardedCrashMatrixCheckpoint(t *testing.T, shards int) {
	ops, ckptAt, rebalAt := shardedCrashScript()

	probeDev := pager.NewFaultDevice(pager.NewDisk())
	d, m := seedSharded(t, wal.NewMemFS(), probeDev, shards)
	probeDev.SetTrip(-1) // reset the counter: only script-time sites matter
	if acked, _ := runShardedScript(d, m, ops, ckptAt, rebalAt); acked != len(ops) {
		t.Fatalf("probe run acknowledged %d/%d ops", acked, len(ops))
	}
	sites := probeDev.Ops()
	if sites == 0 {
		t.Fatal("probe counted no device fault sites")
	}

	for trip := 0; trip < sites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			inner := pager.NewDisk()
			faulty := pager.NewFaultDevice(inner)
			d, m := seedSharded(t, mem, faulty, shards)
			faulty.SetTrip(trip)
			acked, states := runShardedScript(d, m, ops, ckptAt, rebalAt)
			mem.Crash()
			verifyShardedRecovery(t, "ckpt crash", mem, inner, shards, acked, states)
		})
	}
}

// TestShardedCrashMatrixOneShard confines the fault to a single shard's
// log file (every other shard's storage stays healthy) and asserts the
// poison protocol: the first failed shard write fails, every later write
// anywhere fails fast with the same error, and recovery still sees a
// consistent prefix covering all acknowledged ops.
func TestShardedCrashMatrixOneShard(t *testing.T) {
	ops, ckptAt, _ := shardedCrashScript() // no rebalance: generation stays 0
	const shards = 3

	for victim := 0; victim < shards; victim++ {
		victimName := ShardWALName(0, victim)
		filter := func(name string) bool { return name == victimName }

		probeFS := wal.NewFaultFS(wal.NewMemFS())
		d, m := seedSharded(t, probeFS, pager.NewDisk(), shards)
		probeFS.SetNameFilter(filter)
		probeFS.SetTrip(-1)
		if acked, _ := runShardedScript(d, m, ops, ckptAt, nil); acked != len(ops) {
			t.Fatalf("probe run acknowledged %d/%d ops", acked, len(ops))
		}
		sites := probeFS.Ops()
		if sites == 0 {
			t.Fatalf("victim %d saw no traffic", victim)
		}

		for trip := 0; trip < sites; trip++ {
			victim, trip := victim, trip
			t.Run(fmt.Sprintf("victim=%d/trip=%d", victim, trip), func(t *testing.T) {
				t.Parallel()
				mem := wal.NewMemFS()
				faulty := wal.NewFaultFS(mem)
				dev := pager.NewDisk()
				d, m := seedSharded(t, faulty, dev, shards)
				faulty.SetNameFilter(filter)
				faulty.SetTrip(trip)
				acked, states := runShardedScript(d, m, ops, ckptAt, nil)

				// The op that hit the dead shard poisoned the facade:
				// every subsequent write — on ANY shard — fails fast with
				// the same sticky error.
				if acked < len(ops) {
					if err := d.Err(); !errors.Is(err, wal.ErrInjected) {
						t.Fatalf("poisoned facade Err() = %v", err)
					}
					if err := d.Insert(0, 0); !errors.Is(err, wal.ErrInjected) {
						t.Fatalf("write on healthy shard after poison = %v", err)
					}
					if _, err := d.Delete(4095); !errors.Is(err, wal.ErrInjected) {
						t.Fatalf("delete after poison = %v", err)
					}
				}
				if err := d.Close(); acked < len(ops) && !errors.Is(err, wal.ErrInjected) {
					t.Fatalf("poisoned Close() = %v", err)
				}
				mem.Crash()
				verifyShardedRecovery(t, "one-shard crash", mem, dev, shards, acked, states)
			})
		}
	}
}

// TestShardedCrashMatrixRebalance kills storage at every fault point of a
// migration — intent write, new-generation log creation, the committing
// cut's every page, the sweep — crashes, and asserts recovery resolves
// the intent wholesale: the data always equals the full pre-migration
// model (a fence move changes layout, never content), the intent file is
// gone, and the store keeps working.
func TestShardedCrashMatrixRebalance(t *testing.T) {
	const shards = 3
	const n = 600
	load := func(t *testing.T, fsys wal.FS, dev pager.Device) *DurableSharded[int, int] {
		d := newShardedUnderTest(t, fsys, dev, shards)
		for i := 0; i < n; i++ {
			if err := d.Insert(i, i); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	wantPairs := make([][2]int, n)
	for i := range wantPairs {
		wantPairs[i] = [2]int{i, i}
	}

	// Probe on both axes: how many FS ops and device ops one migration
	// costs after an identical load.
	probeFS := wal.NewFaultFS(wal.NewMemFS())
	probeDev := pager.NewFaultDevice(pager.NewDisk())
	d := load(t, probeFS, probeDev)
	probeFS.SetTrip(-1) // reset counters to isolate the migration's sites
	probeDev.SetTrip(-1)
	if err := d.Rebalance(); err != nil {
		t.Fatal(err)
	}
	fsSites, devSites := probeFS.Ops(), probeDev.Ops()
	if fsSites == 0 || devSites == 0 {
		t.Fatalf("probe migration counted %d FS / %d device sites", fsSites, devSites)
	}

	check := func(t *testing.T, label string, mem *wal.MemFS, dev pager.Device) {
		t.Helper()
		mem.Crash()
		rec, err := OpenDurableSharded[int, int](mem, dev, Options{}, shards)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		rec.SetAutoCheckpoint(false)
		if got := dumpSharded(rec); !pairsEqual(got, wantPairs) {
			t.Fatalf("%s: recovered %d pairs, want %d — a migration fault changed the data", label, len(got), n)
		}
		// The intent never outlives a recovery, whichever way it resolved.
		if _, err := mem.Open(IntentName); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: intent file survived recovery: %v", label, err)
		}
		// The recovered store accepts writes and a checkpoint: no
		// generation/name collision with migration leftovers.
		if err := rec.Insert(n+1, -1); err != nil {
			t.Fatalf("%s: post-recovery insert: %v", label, err)
		}
		if _, err := rec.Checkpoint(); err != nil {
			t.Fatalf("%s: post-recovery checkpoint: %v", label, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for trip := 0; trip < fsSites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("fs/trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			faulty := wal.NewFaultFS(mem)
			dev := pager.NewDisk()
			d := load(t, faulty, dev)
			faulty.SetTrip(trip)
			// Trips in the post-commit sweep are absorbed (the sweep is
			// best-effort; recovery re-cleans), so rerr may be nil for
			// the last few sites. A failed migration must poison.
			rerr := d.Rebalance()
			if rerr != nil {
				if err := d.Insert(0, 0); err == nil {
					t.Fatal("write accepted on a facade with an ambiguous migration")
				}
			}
			check(t, "fs", mem, dev)
		})
	}
	for trip := 0; trip < devSites; trip++ {
		trip := trip
		t.Run(fmt.Sprintf("dev/trip=%d", trip), func(t *testing.T) {
			t.Parallel()
			mem := wal.NewMemFS()
			inner := pager.NewDisk()
			faulty := pager.NewFaultDevice(inner)
			d := load(t, mem, faulty)
			faulty.SetTrip(trip)
			d.Rebalance() // may fail; recovery must resolve either way
			check(t, "dev", mem, inner)
		})
	}
}

// --- sticky poison --------------------------------------------------------

// TestDurableShardedStickyError pins the poison protocol end to end on
// the sharded facade: a sync failure fails the triggering write, every
// subsequent write of every kind returns the same error, Err is sticky,
// Close stays safe, and recovery sees exactly the acknowledged prefix.
func TestDurableShardedStickyError(t *testing.T) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	dev := pager.NewDisk()
	d := newShardedUnderTest(t, faulty, dev, 3)
	for i := 0; i < 20; i++ {
		if err := d.Insert((i*997)%4096, i); err != nil {
			t.Fatal(err)
		}
	}
	// Trip the very next FS operation: the 21st insert's append fails.
	faulty.SetTrip(0)
	werr := d.Insert(1, 1)
	if !errors.Is(werr, wal.ErrInjected) {
		t.Fatalf("tripped insert error = %v", werr)
	}
	for i := 0; i < 5; i++ {
		if err := d.Insert((i*131)%4096, i); !errors.Is(err, werr) {
			t.Fatalf("insert %d after poison = %v, want sticky %v", i, err, werr)
		}
		if _, err := d.Delete((i * 997) % 4096); !errors.Is(err, werr) {
			t.Fatalf("delete %d after poison = %v", i, err)
		}
		if _, err := d.DeleteValue((i*997)%4096, i); !errors.Is(err, werr) {
			t.Fatalf("delete-value %d after poison = %v", i, err)
		}
	}
	if err := d.Err(); !errors.Is(err, werr) {
		t.Fatalf("Err() = %v, want sticky %v", err, werr)
	}
	// Reads keep serving the in-memory state.
	if v, ok := d.Lookup(997 % 4096); !ok || v != 1 {
		t.Fatalf("read on poisoned facade: %v %v", v, ok)
	}
	if err := d.Close(); !errors.Is(err, werr) {
		t.Fatalf("Close() = %v, want the poison", err)
	}
	mem.Crash()
	rec := newShardedUnderTest(t, mem, dev, 3)
	if rec.Len() != 20 {
		t.Fatalf("recovered %d elements, want exactly the 20 acked", rec.Len())
	}
}

// --- randomized model check ----------------------------------------------

// TestDurableShardedRandomizedModel drives a seeded random op mix —
// inserts, deletes, checkpoints, migrations, crash-and-recover cycles —
// against the in-memory model and asserts full-state equality after
// every recovery.
func TestDurableShardedRandomizedModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			mem := wal.NewMemFS()
			dev := pager.NewDisk()
			d := newShardedUnderTest(t, mem, dev, 3)
			model := map[int]int{}
			steps := 1500
			for i := 0; i < steps; i++ {
				switch r := rng.Intn(100); {
				case r < 70:
					k, v := rng.Intn(8192), rng.Int()
					// The model is a map, so avoid duplicate keys in the
					// store: overwrite = delete + insert.
					if _, ok := model[k]; ok {
						if _, err := d.Delete(k); err != nil {
							t.Fatal(err)
						}
					}
					if err := d.Insert(k, v); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case r < 85:
					k := rng.Intn(8192)
					_, want := model[k]
					ok, err := d.Delete(k)
					if err != nil {
						t.Fatal(err)
					}
					if ok != want {
						t.Fatalf("step %d: Delete(%d) = %v, model says %v", i, k, ok, want)
					}
					delete(model, k)
				case r < 92:
					if _, err := d.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case r < 96:
					if err := d.Rebalance(); err != nil {
						t.Fatal(err)
					}
				default:
					// Crash and recover mid-run.
					mem.Crash()
					d = newShardedUnderTest(t, mem, dev, 3)
				}
			}
			mem.Crash()
			rec := newShardedUnderTest(t, mem, dev, 3)
			if rec.Len() != len(model) {
				t.Fatalf("recovered %d elements, model has %d", rec.Len(), len(model))
			}
			rec.AscendRange(-1, 8192, func(k, v int) bool {
				if model[k] != v {
					t.Fatalf("key %d: recovered %d, model %d", k, v, model[k])
				}
				return true
			})
		})
	}
}

// --- concurrency ----------------------------------------------------------

// TestDurableShardedConcurrentStress runs parallel writers on disjoint
// key ranges, latch-free readers, and the background checkpointer
// together (the -race target), then verifies a final recovery sees every
// write.
func TestDurableShardedConcurrentStress(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurableSharded[int, int](mem, dev, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFlushEvery(256)
	d.SetSyncEvery(16)
	const writers = 4
	const perWriter = 2000
	var readers, wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Lookup(perWriter / 2)
				d.AscendRange(0, writers*perWriter, func(int, int) bool { return true })
				d.Stats()
			}
		}()
	}
	var werr error
	var werrMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				if err := d.Insert(k, k); err != nil {
					werrMu.Lock()
					if werr == nil {
						werr = err
					}
					werrMu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec := newShardedUnderTest(t, mem, dev, 4)
	if rec.Len() != writers*perWriter {
		t.Fatalf("recovered %d elements, want %d", rec.Len(), writers*perWriter)
	}
	for i := 0; i < writers*perWriter; i += 199 {
		if v, ok := rec.Lookup(i); !ok || v != i {
			t.Fatalf("key %d: %v %v", i, v, ok)
		}
	}
}

// --- commit-protocol regressions ------------------------------------------

// errSuperFault marks a superFaultDev injection.
var errSuperFault = errors.New("injected superblock fault")

// superFaultMode selects what a superFaultDev does to the next superblock
// write: nothing, or one of the three outcomes of a write whose
// acknowledgment never arrives — it landed anyway, it was lost entirely,
// or the crash mid-write left garbage in the slot.
type superFaultMode int

const (
	superPass superFaultMode = iota
	superFailLanded
	superFailLost
	superTear
)

// superFaultDev fails exactly one superblock write (pages 0 and 1) per
// arming, passing every blob-page write through untouched.
type superFaultDev struct {
	pager.Device
	mode superFaultMode
}

func (f *superFaultDev) Write(id pager.PageID, p []byte) error {
	if id >= 2 || f.mode == superPass {
		return f.Device.Write(id, p)
	}
	mode := f.mode
	f.mode = superPass
	switch mode {
	case superFailLanded:
		f.Device.Write(id, p)
	case superTear:
		f.Device.Write(id, make([]byte, len(p)))
	}
	return errSuperFault
}

// TestShardedCheckpointRetryParity pins the dual-superblock discipline
// around a failed commit: a checkpoint retried after a failed superblock
// write must target the slot the failure targeted, never the slot holding
// the last committed cut — that cut's WAL prefixes are already truncated,
// so a crash tearing a retry aimed at its slot would lose acknowledged
// data with no fallback.
func TestShardedCheckpointRetryParity(t *testing.T) {
	run := func(t *testing.T, firstFail superFaultMode, tearRetry bool) {
		mem := wal.NewMemFS()
		disk := pager.NewDisk()
		fdev := &superFaultDev{Device: disk}
		d := newShardedUnderTest(t, mem, fdev, 3)
		for i := 0; i < 200; i++ {
			if err := d.Insert(i*31, i); err != nil {
				t.Fatal(err)
			}
		}
		// Epoch 1 commits and truncates the covered WAL prefixes: from
		// here on, losing the superblock loses the first 200 pairs.
		if _, err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 200; i < 300; i++ {
			if err := d.Insert(i*31, i); err != nil {
				t.Fatal(err)
			}
		}
		fdev.mode = firstFail
		if _, err := d.Checkpoint(); !errors.Is(err, errSuperFault) {
			t.Fatalf("checkpoint with failing superblock write = %v, want injected fault", err)
		}
		for i := 300; i < 350; i++ {
			if err := d.Insert(i*31, i); err != nil {
				t.Fatal(err)
			}
		}
		if tearRetry {
			fdev.mode = superTear
			if _, err := d.Checkpoint(); !errors.Is(err, errSuperFault) {
				t.Fatalf("torn retry checkpoint = %v, want injected fault", err)
			}
		} else {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatalf("retry checkpoint: %v", err)
			}
			super, ok, err := pager.ReadSuper(disk)
			if err != nil || !ok {
				t.Fatalf("ReadSuper after retry = (%v, %v)", ok, err)
			}
			if super.Epoch != 4 {
				t.Fatalf("retry committed epoch %d, want 4 (the failed attempt claims two)", super.Epoch)
			}
		}
		mem.Crash()
		rec := newShardedUnderTest(t, mem, disk, 3)
		defer rec.Close()
		if got := rec.Len(); got != 350 {
			t.Fatalf("recovered %d pairs, want 350", got)
		}
		for i := 0; i < 350; i++ {
			if v, ok := rec.Lookup(i * 31); !ok || v != i {
				t.Fatalf("key %d: got (%d, %v), want (%d, true)", i*31, v, ok, i)
			}
		}
	}
	t.Run("lost-then-torn-retry", func(t *testing.T) { run(t, superFailLost, true) })
	t.Run("landed-then-torn-retry", func(t *testing.T) { run(t, superFailLanded, true) })
	t.Run("lost-then-retry-commits", func(t *testing.T) { run(t, superFailLost, false) })
}

// TestShardedPoisonedCheckpointFailsFast pins the poison contract for
// checkpoints: after a rebalance fails with its intent record already
// durable, Checkpoint must refuse to commit — a fresh epoch under the old
// generation would leave the durable state stranded between the intent
// and the migration it describes — and recovery must still see every
// acknowledged write under the old generation.
func TestShardedPoisonedCheckpointFailsFast(t *testing.T) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	disk := pager.NewDisk()
	d := newShardedUnderTest(t, faulty, disk, 3)
	for i := 0; i < 400; i++ {
		if err := d.Insert(i*17, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 500; i++ {
		if err := d.Insert(i*17, i); err != nil {
			t.Fatal(err)
		}
	}
	committed, ok, err := pager.ReadSuper(disk)
	if err != nil || !ok {
		t.Fatalf("ReadSuper = (%v, %v)", ok, err)
	}
	// Fail the migration after its intent record is durable: the first
	// touch of any new-generation log file trips.
	faulty.SetNameFilter(func(name string) bool { return strings.HasPrefix(name, "wal-1-") })
	faulty.SetTrip(0)
	if err := d.Rebalance(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("rebalance = %v, want injected fault", err)
	}
	if mem.Bytes(IntentName) == nil {
		t.Fatal("rebalance died after the intent write but left no intent record")
	}
	if _, err := d.Checkpoint(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("checkpoint on a poisoned facade = %v, want the sticky fault", err)
	}
	if after, ok, err := pager.ReadSuper(disk); err != nil || !ok || after.Epoch != committed.Epoch {
		t.Fatalf("poisoned checkpoint moved the committed epoch %d -> %d (ok=%v, err=%v)",
			committed.Epoch, after.Epoch, ok, err)
	}
	mem.Crash()
	rec := newShardedUnderTest(t, mem, disk, 3)
	defer rec.Close()
	if got := rec.Len(); got != 500 {
		t.Fatalf("recovered %d pairs, want 500", got)
	}
	if g := rec.Generation(); g != 0 {
		t.Fatalf("recovered generation %d, want 0 (the migration never committed)", g)
	}
	if mem.Bytes(IntentName) != nil {
		t.Fatal("recovery left the stale intent record behind")
	}
}

// TestCreateDurableShardedSupersedeCrash pins CreateDurableSharded's
// supersede discipline: until the new store's first cut commits, a crash
// must still recover the previous store in full — checkpointed base and
// acknowledged WAL tail alike — and a committed supersede continues the
// old store's generation sequence, sweeping its log files only after the
// commit.
func TestCreateDurableShardedSupersedeCrash(t *testing.T) {
	mem := wal.NewMemFS()
	disk := pager.NewDisk()

	// Store A: a checkpointed base plus an acknowledged, never-checkpointed
	// WAL tail. No Close — the process is about to "crash".
	a := newShardedUnderTest(t, mem, disk, 3)
	for i := 0; i < 300; i++ {
		if err := a.Insert(i*13, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 360; i++ {
		if err := a.Insert(i*13, i); err != nil {
			t.Fatal(err)
		}
	}

	// A supersede attempt that dies before its first cut commits: the
	// device rejects (tears) the very first page write.
	tree, err := BulkLoad([]int{1, 2, 3}, []int{10, 20, 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fdev := pager.NewFaultDevice(disk)
	fdev.SetTrip(0)
	if _, err := CreateDurableSharded(mem, fdev, tree, 2); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("create on a dead device = %v, want injected fault", err)
	}
	mem.Crash()

	rec := newShardedUnderTest(t, mem, disk, 3)
	if got := rec.Len(); got != 360 {
		t.Fatalf("recovered %d pairs after a failed supersede, want 360", got)
	}
	for i := 0; i < 360; i++ {
		if v, ok := rec.Lookup(i * 13); !ok || v != i {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", i*13, v, ok, i)
		}
	}
	if g := rec.Generation(); g != 0 {
		t.Fatalf("recovered generation %d, want 0", g)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// A successful supersede continues the generation sequence and sweeps
	// the old store's log files only after committing.
	tree2, err := BulkLoad([]int{1, 2, 3}, []int{10, 20, 30}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurableSharded(mem, disk, tree2, 2)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, d)
	if g := d.Generation(); g != 1 {
		t.Fatalf("superseding store at generation %d, want 1", g)
	}
	for _, name := range mem.Names() {
		if strings.HasPrefix(name, "wal-0-") {
			t.Fatalf("old generation's log %s survived a committed supersede", name)
		}
	}
	if err := d.Insert(4, 40); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	rec2 := newShardedUnderTest(t, mem, disk, 2)
	defer rec2.Close()
	want := map[int]int{1: 10, 2: 20, 3: 30, 4: 40}
	if got := rec2.Len(); got != len(want) {
		t.Fatalf("recovered %d pairs after a committed supersede, want %d", got, len(want))
	}
	for k, v := range want {
		if got, ok := rec2.Lookup(k); !ok || got != v {
			t.Fatalf("key %d: got (%d, %v), want (%d, true)", k, got, ok, v)
		}
	}
	if g := rec2.Generation(); g != 1 {
		t.Fatalf("recovered generation %d, want 1", g)
	}
}
