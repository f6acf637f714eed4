package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span times.
type spanKind uint8

const (
	spanLookup       spanKind = iota // facade Lookup
	spanScan                         // facade AscendRange
	spanInsert                       // facade Insert
	spanDelete                       // facade Delete
	spanRefBreakdown                 // Tree.LookupBreakdown on the reference tree
	spanRefLookup                    // Tree.Lookup on the reference tree
	spanStats                        // facade Stats sample of the merge ladder
	spanReplayInsert                 // Tree.Insert replaying the write stream
	spanReplayDelete                 // Tree.Delete replaying the write stream
	spanWALSync                      // wal.File Sync
	spanDevWrite                     // pager.Device Write
	spanDevSync                      // pager.Device Sync
)

var spanNames = [...]string{
	spanLookup:       "facade.Lookup",
	spanScan:         "facade.AscendRange",
	spanInsert:       "facade.Insert",
	spanDelete:       "facade.Delete",
	spanRefBreakdown: "ref.LookupBreakdown",
	spanRefLookup:    "ref.Lookup",
	spanStats:        "facade.Stats",
	spanReplayInsert: "bare.Insert",
	spanReplayDelete: "bare.Delete",
	spanWALSync:      "wal.Sync",
	spanDevWrite:     "device.Write",
	spanDevSync:      "device.Sync",
}

// span is one timed call. Spans of one client operation share op; a
// probe's parent is the facade call that caused it. Storage calls carry
// op 0: the wrappers cannot tell which operation, if any, they serve.
type span struct {
	op     uint64
	parent int32 // index in the same buffer, -1 for none
	kind   spanKind
	start  int64 // ns since the tracer's origin
	dur    int64
}

// spanBuf holds one goroutine's spans up to a fixed capacity; spans past
// it are counted, not kept, so a long run cannot exhaust memory.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

func (b *spanBuf) add(origin time.Time, op uint64, parent int32, kind spanKind, start time.Time, d time.Duration) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{op: op, parent: parent, kind: kind, start: start.Sub(origin).Nanoseconds(), dur: d.Nanoseconds()})
	return int32(len(b.spans) - 1)
}

// tracer keeps the spans of a traced run in memory until the run ends.
// Client goroutines own their buffers; storage-wrapper spans share one
// behind a mutex and are recorded only while on is set, that is during
// traced slices of the measured phase.
type tracer struct {
	origin  time.Time
	on      atomic.Bool
	clients []*spanBuf

	replay *spanBuf // the bare-tree replay's spans, filled after the clients stop

	mu sync.Mutex
	bg *spanBuf
}

const (
	clientSpanCap     = 1 << 16
	backgroundSpanCap = 1 << 15
)

func newTracer(clients int) *tracer {
	t := &tracer{origin: time.Now(), bg: newSpanBuf(backgroundSpanCap)}
	for range clients {
		t.clients = append(t.clients, newSpanBuf(clientSpanCap))
	}
	return t
}

// setOn switches recording of storage-layer spans. It is safe on a nil
// tracer.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// background records a storage-layer span. It is safe on a nil tracer.
func (t *tracer) background(kind spanKind, start time.Time, d time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.bg.add(t.origin, 0, -1, kind, start, d)
	t.mu.Unlock()
}

func (t *tracer) dropped() int64 {
	t.mu.Lock()
	n := t.bg.dropped
	t.mu.Unlock()
	for _, b := range t.clients {
		n += b.dropped
	}
	if t.replay != nil {
		n += t.replay.dropped
	}
	return n
}

// write dumps every kept span as one JSON object per line. Call it after
// all clients and storage activity have stopped.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	dump := func(owner string, b *spanBuf) {
		for i, s := range b.spans {
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf("%q", fmt.Sprintf("%s/%d", owner, s.parent))
			}
			fmt.Fprintf(w, `{"id":"%s/%d","op":%d,"parent":%s,"name":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
				owner, i, s.op, parent, spanNames[s.kind], s.start, s.dur)
		}
	}
	for i, b := range t.clients {
		dump(fmt.Sprintf("c%d", i), b)
	}
	if t.replay != nil {
		dump("replay", t.replay)
	}
	t.mu.Lock()
	dump("bg", t.bg)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
