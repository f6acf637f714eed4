package fitingtree

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// --- model ---------------------------------------------------------------

// dmodel is the reference state: a sorted multiset of (key, value) pairs.
// The crash tests give duplicate keys identical values, so set equality is
// well-defined regardless of which duplicate a delete removes.
type dmodel struct {
	pairs [][2]int
}

func (m *dmodel) insert(k, v int) {
	m.pairs = append(m.pairs, [2]int{k, v})
	sort.Slice(m.pairs, func(a, b int) bool {
		if m.pairs[a][0] != m.pairs[b][0] {
			return m.pairs[a][0] < m.pairs[b][0]
		}
		return m.pairs[a][1] < m.pairs[b][1]
	})
}

func (m *dmodel) delete(k int) {
	for i, p := range m.pairs {
		if p[0] == k {
			m.pairs = append(m.pairs[:i:i], m.pairs[i+1:]...)
			return
		}
	}
}

func (m *dmodel) clone() *dmodel {
	return &dmodel{pairs: append([][2]int(nil), m.pairs...)}
}

// dump extracts a Durable's full content in the model's normalized form.
func dump(d *Durable[int, int]) [][2]int {
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

// soleOpt returns the Optimistic tree of a one-shard durable facade.
func soleOpt(d *Durable[int, int]) *Optimistic[int, int] { return d.set.Load().opts[0] }

func pairsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- scenario ------------------------------------------------------------

// dOp is one scripted operation of the crash scenario.
type dOp struct {
	del bool
	k   int
	v   int
}

// crashScript is a fixed op sequence with duplicates (same value per key)
// and deletes, with checkpoints interleaved at the marked indices.
func crashScript() ([]dOp, map[int]bool) {
	var ops []dOp
	for i := 0; i < 30; i++ {
		ops = append(ops, dOp{k: i * 2, v: i * 10})
		if i%5 == 0 {
			ops = append(ops, dOp{k: i * 2, v: i * 10}) // duplicate, same value
		}
	}
	for i := 0; i < 8; i++ {
		ops = append(ops, dOp{del: true, k: i * 4})
	}
	ckptAt := map[int]bool{12: true, 30: true}
	return ops, ckptAt
}

// runScript drives a Durable through the script, stopping at the first
// error (an injected fault kills everything after it anyway). It returns
// the number of ops acknowledged (nil error with sync-every-1) and the
// model state after every prefix.
func runScript(d *Durable[int, int], ops []dOp, ckptAt map[int]bool) (acked int, states []*dmodel) {
	m := &dmodel{}
	states = append(states, m.clone()) // state after 0 ops
	for i, op := range ops {
		if ckptAt[i] {
			d.Checkpoint() // failure is fine; the WAL still covers everything
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

// verifyRecovery reopens the (injector-free) store and asserts the
// recovered state equals the model after some prefix of at least the
// acknowledged ops.
func verifyRecovery(t *testing.T, label string, fsys wal.FS, dev pager.Device, acked int, states []*dmodel) {
	t.Helper()
	rec, err := OpenDurable[int, int](fsys, dev, Options{})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	rec.SetAutoCheckpoint(false)
	// Structural check first: every recovered page must respect its own
	// recorded error bound (werr), so a checkpoint written under a tuned
	// per-region plan survives any fault trip with its layout intact.
	if err := soleOpt(rec).state.Load().tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: recovered invariants: %v", label, err)
	}
	got := dump(rec)
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

// --- crash matrix --------------------------------------------------------

// TestCrashMatrixWAL kills the WAL file system at every mutating
// operation of the scripted scenario — mid-append (torn final record),
// mid-sync, mid-truncate — then crashes away unsynced bytes and asserts
// prefix-consistent recovery with no acknowledged write lost.
func TestCrashMatrixWAL(t *testing.T) {
	ops, ckptAt := crashScript()

	// Probe: count fault-site operations in a healthy run.
	probeMem := wal.NewMemFS()
	probeFS := wal.NewFaultFS(probeMem)
	d, err := OpenDurable[int, int](probeFS, pager.NewDisk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetFlushEvery(8)
	if acked, _ := runScript(d, ops, ckptAt); acked != len(ops) {
		t.Fatalf("probe run acknowledged %d/%d ops", acked, len(ops))
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
			d, err := OpenDurable[int, int](faulty, pager.NewDisk(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			d.SetAutoCheckpoint(false)
			d.SetAsyncFlush(false)
			d.SetFlushEvery(8)
			faulty.SetTrip(trip)
			acked, states := runScript(d, ops, ckptAt)
			mem.Crash() // lose every byte not covered by a sync
			// Recover against the raw stores: a second fresh device means
			// checkpoints are discarded too, so recovery must come from the
			// WAL alone only if the run never checkpointed — use the same
			// device, whose committed checkpoints survive.
			verifyRecovery(t, "wal crash", mem, devOf(d), acked, states)
		})
	}
}

// devOf unwraps the pager device a Durable was opened over.
func devOf(d *Durable[int, int]) pager.Device { return d.store.Device() }

// TestCrashMatrixCheckpoint kills the checkpoint device at every page
// write and sync — mid-blob, mid-manifest, mid-superblock — and asserts
// the previous checkpoint plus the intact WAL still recover every
// acknowledged write.
func TestCrashMatrixCheckpoint(t *testing.T) {
	ops, ckptAt := crashScript()

	probeDev := pager.NewFaultDevice(pager.NewDisk())
	d, err := OpenDurable[int, int](wal.NewMemFS(), probeDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	d.SetFlushEvery(8)
	if acked, _ := runScript(d, ops, ckptAt); acked != len(ops) {
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
			d, err := OpenDurable[int, int](mem, faulty, Options{})
			if err != nil {
				t.Fatal(err)
			}
			d.SetAutoCheckpoint(false)
			d.SetAsyncFlush(false)
			d.SetFlushEvery(8)
			faulty.SetTrip(trip)
			acked, states := runScript(d, ops, ckptAt)
			mem.Crash()
			// Recovery reads the raw device: whatever the torn checkpoint
			// left behind must be ignored in favor of the last committed
			// superblock (or a WAL-only rebuild when none committed).
			verifyRecovery(t, "ckpt crash", mem, inner, acked, states)
		})
	}
}

// TestRecoveryRejectsCorruptedBlobs flips one byte in a committed
// checkpoint blob and asserts recovery reports an error instead of
// loading garbage.
func TestRecoveryRejectsCorruptedBlobs(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	for i := 0; i < 200; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sup, ok, err := pager.ReadSuper(dev)
	if err != nil || !ok {
		t.Fatalf("no superblock after checkpoint: %v", err)
	}
	// Corrupt one byte of the manifest chain's first page payload.
	buf := make([]byte, pager.PageSize)
	if err := dev.Read(sup.Manifest, buf); err != nil {
		t.Fatal(err)
	}
	buf[pager.PageSize/2] ^= 0xFF
	if err := dev.Write(sup.Manifest, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable[int, int](mem, dev, Options{}); err == nil {
		t.Fatal("recovery loaded a corrupted checkpoint without error")
	}
}

// TestIncrementalCheckpointIsODirty checks the headline property: a
// checkpoint after a small batch of writes re-serializes only the chunks
// that batch dirtied, not the whole tree.
func TestIncrementalCheckpointIsODirty(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	keys := make([]int, 200_000)
	vals := make([]int, len(keys))
	seed := uint64(7)
	k := 0
	for i := range keys {
		seed = seed*6364136223846793005 + 1442695040888963407
		if i%37 == 0 {
			k += 1 + int((seed>>33)%100000)
		} else {
			k += int(seed % 3)
		}
		keys[i], vals[i] = k, i
	}
	tree, err := BulkLoad(keys, vals, Options{Error: 32})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurable(mem, dev, tree)
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)

	// A tight batch of writes dirties a handful of chunks.
	for i := 0; i < 50; i++ {
		if err := d.Insert(keys[1000]+i, -i); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	total := stats.ChunksWritten + stats.ChunksReused
	if total < 10 {
		t.Fatalf("tree too small for the test: %d chunks", total)
	}
	if stats.ChunksWritten*4 > total {
		t.Fatalf("checkpoint wrote %d of %d chunks for a 50-key batch — not incremental", stats.ChunksWritten, total)
	}
	if stats.ChunksReused == 0 {
		t.Fatal("checkpoint reused no chunks")
	}
	// And the WAL prefix is gone.
	if n := d.WALRecords(); n != 0 {
		t.Fatalf("WAL holds %d records after checkpoint", n)
	}
}

// TestDurableGroupCommit checks SetSyncEvery batching: unacked writes die
// in a crash, writes covered by the explicit Sync barrier survive.
func TestDurableGroupCommit(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetSyncEvery(64)
	for i := 0; i < 10; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()
	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if rec.Len() != 10 {
		t.Fatalf("recovered %d elements, want the 10 synced ones", rec.Len())
	}
	for i := 0; i < 10; i++ {
		if _, ok := rec.Lookup(i); !ok {
			t.Fatalf("synced key %d lost", i)
		}
	}
}

// TestDurableStringValues exercises the codec's string fast path and the
// gob fallback (struct values) end to end.
func TestDurableStringValues(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[uint32, string](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	for i := uint32(0); i < 100; i++ {
		if err := d.Insert(i, fmt.Sprintf("value-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint32(100); i < 150; i++ {
		if err := d.Insert(i, fmt.Sprintf("value-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := OpenDurable[uint32, string](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	for i := uint32(0); i < 150; i++ {
		if v, ok := rec.Lookup(i); !ok || v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d: %q %v", i, v, ok)
		}
	}

	type rec2 struct{ A, B int }
	mem2 := wal.NewMemFS()
	d2, err := OpenDurable[int, rec2](mem2, pager.NewDisk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d2.SetAutoCheckpoint(false)
	if err := d2.Insert(1, rec2{A: 7, B: 9}); err != nil {
		t.Fatal(err)
	}
	mem3 := wal.NewMemFS()
	for _, name := range mem2.Names() {
		mem3.SetBytes(name, mem2.Bytes(name))
	}
	r2, err := OpenDurable[int, rec2](mem3, pager.NewDisk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2.SetAutoCheckpoint(false)
	if v, ok := r2.Lookup(1); !ok || v != (rec2{A: 7, B: 9}) {
		t.Fatalf("gob value round trip: %+v %v", v, ok)
	}
}

// TestDurableConcurrentStress runs writers, readers, and the background
// checkpointer together (the -race target), then verifies a final
// recovery sees every write.
func TestDurableConcurrentStress(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFlushEvery(256)
	const n = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Lookup(n / 2)
				d.AscendRange(0, n, func(int, int) bool { return true })
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if rec.Len() != n {
		t.Fatalf("recovered %d elements, want %d", rec.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		if v, ok := rec.Lookup(i); !ok || v != i {
			t.Fatalf("key %d: %v %v", i, v, ok)
		}
	}
	// Close ran a final checkpoint, so recovery should have replayed an
	// empty (or truncated) tail.
	if n := rec.WALRecords(); n != 0 {
		t.Fatalf("WAL holds %d records after Close", n)
	}
}

// TestCreateDurableSkipsWAL checks bulk import: CreateDurable writes a
// checkpoint directly and leaves the WAL empty.
func TestCreateDurableSkipsWAL(t *testing.T) {
	mem := wal.NewMemFS()
	dev := pager.NewDisk()
	keys := []int{1, 5, 9, 12, 40}
	vals := []int{10, 50, 90, 120, 400}
	tree, err := BulkLoad(keys, vals, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := CreateDurable(mem, dev, tree)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.WALRecords(); n != 0 {
		t.Fatalf("bulk import appended %d WAL records", n)
	}
	if err := d.Insert(6, 60); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if rec.Len() != 6 {
		t.Fatalf("recovered %d elements, want 6", rec.Len())
	}
	if v, ok := rec.Lookup(6); !ok || v != 60 {
		t.Fatalf("post-import insert lost: %v %v", v, ok)
	}
}

// TestDurableStickyError pins the poison protocol on the single-tree
// facade: once a WAL write or sync fails, every subsequent write of every
// kind returns the same error (an acknowledged write that replay cannot
// see must never happen), Err is sticky, Close skips the checkpoint but
// stays safe, and recovery sees exactly the acknowledged prefix.
func TestDurableStickyError(t *testing.T) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	dev := pager.NewDisk()
	d, err := OpenDurable[int, int](faulty, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	d.SetAsyncFlush(false)
	for i := 0; i < 25; i++ {
		if err := d.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	// Trip the next mutating FS op: the 26th insert's append fails mid-
	// write (a torn record lands in the log).
	faulty.SetTrip(0)
	werr := d.Insert(100, 100)
	if !errors.Is(werr, wal.ErrInjected) {
		t.Fatalf("tripped insert error = %v", werr)
	}
	for i := 0; i < 5; i++ {
		if err := d.Insert(200+i, i); !errors.Is(err, werr) {
			t.Fatalf("insert %d after poison = %v, want sticky %v", i, err, werr)
		}
		if _, err := d.Delete(i); !errors.Is(err, werr) {
			t.Fatalf("delete %d after poison = %v", i, err)
		}
		if _, err := d.DeleteValue(i, i); !errors.Is(err, werr) {
			t.Fatalf("delete-value %d after poison = %v", i, err)
		}
	}
	if err := d.Err(); !errors.Is(err, werr) {
		t.Fatalf("Err() = %v, want sticky %v", err, werr)
	}
	// Reads keep serving the in-memory state.
	if v, ok := d.Lookup(10); !ok || v != 10 {
		t.Fatalf("read on poisoned facade: %v %v", v, ok)
	}
	if err := d.Close(); !errors.Is(err, werr) {
		t.Fatalf("Close() = %v, want the poison", err)
	}
	mem.Crash()
	rec, err := OpenDurable[int, int](mem, dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetAutoCheckpoint(false)
	if rec.Len() != 25 {
		t.Fatalf("recovered %d elements, want exactly the 25 acked", rec.Len())
	}
	for i := 0; i < 25; i++ {
		if v, ok := rec.Lookup(i); !ok || v != i {
			t.Fatalf("acked key %d lost: %v %v", i, v, ok)
		}
	}
}

// TestDurableFaultInjectionReturnsErrors sanity-checks that injected
// faults surface as errors, not panics or silent loss.
func TestDurableFaultInjectionReturnsErrors(t *testing.T) {
	mem := wal.NewMemFS()
	faulty := wal.NewFaultFS(mem)
	d, err := OpenDurable[int, int](faulty, pager.NewDisk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetAutoCheckpoint(false)
	if err := d.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	faulty.SetTrip(0)
	if err := d.Insert(2, 2); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("tripped insert error = %v", err)
	}
}
