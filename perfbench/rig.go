package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"fitingtree"
	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// rig is one set-up facade and, for the durable workload, the storage
// stack beneath it: FaultFS over countingFS over DirFS for the logs and
// FaultDevice over countingDevice over FileDisk for checkpoint pages.
type rig struct {
	st   store
	opt  *fitingtree.Optimistic[uint64, uint64]
	dur  *fitingtree.DurableSharded[uint64, uint64]
	dir  string
	disk *pager.FileDisk
	fsys *countingFS
	dev  *countingDevice
	ffs  *wal.FaultFS
	fdev *pager.FaultDevice
}

// setUp builds the workload's facade over ds and returns the time from
// the first library call until the facade is ready.
func setUp(sp spec, ds *dataset, tmpDir string, tr *tracer) (_ *rig, _ time.Duration, err error) {
	r := &rig{}
	defer func() {
		if err != nil && r.dir != "" {
			if r.disk != nil {
				r.disk.Close()
			}
			os.RemoveAll(r.dir)
		}
	}()
	if sp.durable {
		dir, err := os.MkdirTemp(tmpDir, "durable-")
		if err != nil {
			return nil, 0, err
		}
		r.dir = dir
		dfs, err := wal.NewDirFS(filepath.Join(dir, "wal"))
		if err != nil {
			return nil, 0, err
		}
		if r.disk, err = pager.OpenFileDisk(filepath.Join(dir, "pages")); err != nil {
			return nil, 0, err
		}
		r.fsys = &countingFS{inner: dfs, tr: tr}
		r.dev = &countingDevice{inner: r.disk, tr: tr}
		r.ffs = wal.NewFaultFS(r.fsys)
		r.fdev = pager.NewFaultDevice(r.dev)
	}
	start := time.Now()
	t, err := fitingtree.BulkLoad(ds.bulk, ds.bulk, indexOptions)
	if err != nil {
		return nil, 0, err
	}
	if !sp.durable {
		r.opt = fitingtree.NewOptimistic(t)
		r.st = optStore{r.opt}
		return r, time.Since(start), nil
	}
	r.dur, err = fitingtree.CreateDurableSharded(r.ffs, r.fdev, t, durableShards)
	if err != nil {
		return nil, 0, err
	}
	r.dur.SetSyncEvery(syncEvery)
	d := time.Since(start)
	r.st = r.dur
	return r, d, nil
}

// discard tears down a set-up that will not be measured. Its files stay
// until the run ends: deleting them discards their blocks on the device,
// which would slow the set-ups and the measured phase that follow.
func (r *rig) discard() error {
	if r.opt != nil {
		r.opt.Close()
		return nil
	}
	err := r.dur.Close()
	if cerr := r.disk.Close(); err == nil {
		err = cerr
	}
	return err
}

// foldLog records flush-hook firings: each is a publication of a new
// base tree, that is one fold.
type foldLog struct {
	mu    sync.Mutex
	times []time.Time
}

func (f *foldLog) fire() {
	f.mu.Lock()
	f.times = append(f.times, time.Now())
	f.mu.Unlock()
}

// between returns the firings in [from, to).
func (f *foldLog) between(from, to time.Time) []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []time.Time
	for _, t := range f.times {
		if !t.Before(from) && t.Before(to) {
			out = append(out, t)
		}
	}
	return out
}
