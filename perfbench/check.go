package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fitingtree"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// verify checks a quiesced facade against what the clients know: the
// element count, every own insert present with value == key, and every
// own delete gone. With bulk set it also reads back every bulk-loaded
// key.
func verify(rep *report, st store, ds *dataset, cs []*client, wantLen int, bulk bool) {
	if n := st.Len(); n != wantLen {
		rep.problem("Len() = %d, want %d", n, wantLen)
	}
	bad := 0
	expect := func(k uint64, present bool) {
		v, ok := st.Lookup(k)
		if ok != present || (ok && v != k) {
			if bad < maxFailures {
				rep.problem("after the run Lookup(%d) = %d, %v; want found=%v", k, v, ok, present)
			}
			bad++
		}
	}
	if bulk {
		for _, k := range ds.bulk {
			expect(k, true)
		}
	}
	for _, c := range cs {
		for _, k := range c.live {
			expect(k, true)
		}
		for k := range c.deleted {
			expect(k, false)
		}
	}
	if bad > 0 {
		rep.problem("%d keys read back wrong after the run", bad)
	}
}

// recoverAfterKill ends the durable workload once its storage has been
// tripped. The clients have each called Sync, so every write they issued
// is acknowledged. It reopens the store, timing OpenDurableSharded, and
// checks that every acknowledged insert is readable and every
// acknowledged delete stays gone.
func recoverAfterKill(rep *report, r *rig, ds *dataset, cs []*client, wantLen int) error {
	// Close fails on the tripped storage; it is called only to stop the
	// facade's background goroutines.
	_ = r.dur.Close()
	if err := r.disk.Close(); err != nil {
		return fmt.Errorf("closing the killed page file: %w", err)
	}

	diskBytes, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	rep.extra("disk_bytes_per_key", "bytes", float64(diskBytes)/float64(wantLen))

	dfs, err := wal.NewDirFS(filepath.Join(r.dir, "wal"))
	if err != nil {
		return err
	}
	disk, err := pager.OpenFileDisk(filepath.Join(r.dir, "pages"))
	if err != nil {
		return err
	}
	defer disk.Close()
	fsys := &countingFS{inner: dfs}
	dev := &countingDevice{inner: disk}
	start := time.Now()
	d, err := fitingtree.OpenDurableSharded[uint64, uint64](fsys, dev, indexOptions, durableShards)
	recovery := time.Since(start)
	if err != nil {
		rep.problem("reopening after the kill: %v", err)
		return nil
	}
	rep.extra("recovery_s", "s", recovery.Seconds())
	records := 0
	for _, s := range d.WALOpenStats() {
		records += s.Records
	}
	rep.vals["recovery.wal_records"] = float64(records)
	rep.vals["recovery.dev_pages_read"] = float64(dev.reads.Load())

	verify(rep, d, ds, cs, wantLen, true)
	if err := d.Close(); err != nil {
		rep.problem("closing the recovered store: %v", err)
	}
	return disk.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// replay applies every client's write stream, client by client, to the
// bare reference tree, timing each Tree.Insert and Tree.Delete: the
// floor the facade's write path is measured against. It returns the
// mean in nanoseconds.
func replay(rep *report, ref *fitingtree.Tree[uint64, uint64], tr *tracer, logs [][]replayRec) float64 {
	var h hist
	missed := 0
	buf := newSpanBuf(clientSpanCap)
	for _, log := range logs {
		for _, w := range log {
			k := w.key &^ replayDelete
			start := time.Now()
			if w.key&replayDelete == 0 {
				ref.Insert(k, k)
				d := time.Since(start)
				h.record(d)
				buf.add(tr.origin, w.op, -1, spanReplayInsert, start, d)
				continue
			}
			ok := ref.Delete(k)
			d := time.Since(start)
			h.record(d)
			buf.add(tr.origin, w.op, -1, spanReplayDelete, start, d)
			if !ok {
				missed++
			}
		}
	}
	if missed > 0 {
		rep.problem("replaying the write stream: %d deletes found nothing in the bare tree", missed)
	}
	tr.replay = buf
	return h.mean()
}
