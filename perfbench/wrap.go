package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fitingtree/internal/pager"
	"fitingtree/internal/wal"
)

// syncStats counts Sync calls and their durations. Syncs arrive from
// several goroutines at once (one per shard log, plus the checkpointer),
// so the histogram sits behind a mutex; a Sync costs far more than the
// lock.
type syncStats struct {
	mu   sync.Mutex
	h    hist
	busy time.Duration
}

func (s *syncStats) add(d time.Duration) {
	s.mu.Lock()
	s.h.record(d)
	s.busy += d
	s.mu.Unlock()
}

func (s *syncStats) reset() {
	s.mu.Lock()
	s.h, s.busy = hist{}, 0
	s.mu.Unlock()
}

func (s *syncStats) snapshot() (h hist, busy time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h, s.busy
}

// countingFS is a wal.FS that counts the bytes written to every file it
// hands out and counts and times their Sync calls. Every call passes through to
// the wrapped FS and every error comes back unchanged.
type countingFS struct {
	inner wal.FS
	tr    *tracer
	bytes atomic.Int64
	syncs syncStats
}

func (c *countingFS) Create(name string) (wal.File, error) {
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{fs: c, inner: f}, nil
}

func (c *countingFS) Append(name string) (wal.File, error) {
	f, err := c.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{fs: c, inner: f}, nil
}

func (c *countingFS) Open(name string) (io.ReadCloser, error) { return c.inner.Open(name) }
func (c *countingFS) Remove(name string) error                { return c.inner.Remove(name) }
func (c *countingFS) Rename(oldname, newname string) error    { return c.inner.Rename(oldname, newname) }

// reset zeroes the counters at the start of a measured phase.
func (c *countingFS) reset() {
	c.bytes.Store(0)
	c.syncs.reset()
}

type countingFile struct {
	fs    *countingFS
	inner wal.File
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	d := time.Since(start)
	f.fs.syncs.add(d)
	f.fs.tr.background(spanWALSync, start, d)
	return err
}

func (f *countingFile) Close() error { return f.inner.Close() }

// countingDevice is a pager.Device that counts page reads and writes,
// the bytes written, and Sync calls, timing each Sync. Every call passes
// through and every error comes back unchanged.
type countingDevice struct {
	inner  pager.Device
	tr     *tracer
	reads  atomic.Int64
	writes atomic.Int64
	bytes  atomic.Int64
	syncs  syncStats
}

// reset zeroes the counters at the start of a measured phase.
func (d *countingDevice) reset() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.bytes.Store(0)
	d.syncs.reset()
}

func (d *countingDevice) Allocate() pager.PageID { return d.inner.Allocate() }
func (d *countingDevice) NumPages() int          { return d.inner.NumPages() }

func (d *countingDevice) Read(id pager.PageID, buf []byte) error {
	d.reads.Add(1)
	return d.inner.Read(id, buf)
}

func (d *countingDevice) Write(id pager.PageID, buf []byte) error {
	start := time.Now()
	err := d.inner.Write(id, buf)
	d.writes.Add(1)
	d.bytes.Add(int64(min(len(buf), pager.PageSize)))
	d.tr.background(spanDevWrite, start, time.Since(start))
	return err
}

func (d *countingDevice) Sync() error {
	start := time.Now()
	err := d.inner.Sync()
	dur := time.Since(start)
	d.syncs.add(dur)
	d.tr.background(spanDevSync, start, dur)
	return err
}
