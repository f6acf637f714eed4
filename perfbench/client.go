package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fitingtree"
)

// store is the facade surface the clients drive; Optimistic and
// DurableSharded both provide it.
type store interface {
	Lookup(k uint64) (uint64, bool)
	AscendRange(lo, hi uint64, fn func(k, v uint64) bool)
	Insert(k, v uint64) error
	Delete(k uint64) (bool, error)
	Len() int
	Stats() fitingtree.Stats
}

// optStore gives Optimistic's infallible writes the store signatures.
type optStore struct {
	*fitingtree.Optimistic[uint64, uint64]
}

func (s optStore) Insert(k, v uint64) error      { s.Optimistic.Insert(k, v); return nil }
func (s optStore) Delete(k uint64) (bool, error) { return s.Optimistic.Delete(k), nil }

// Modes of a run. The coordinator publishes the mode together with the
// index of the current slice of the measured phase; clients read both
// before every operation and charge the operation to them.
const (
	modeWarmup int32 = iota
	modeUntraced
	modeTraced
	modeHold // clients park so sizes can be measured with no call in flight
	modeStop
	modeBits = 3
	modeMask = 1<<modeBits - 1
)

// control is what the coordinator shares with its clients.
type control struct {
	phase   atomic.Int32 // slice<<modeBits | mode
	running atomic.Int32 // clients still in their loop
	held    atomic.Int32 // clients parked in modeHold
	writes  atomic.Int64 // writes issued in measured slices by all clients

	sizeAt    int64         // writes after which sizes are measured; 0 = never
	milestone chan struct{} // closed when writes reaches sizeAt
	exhausted chan struct{} // closed when a client's insert pool runs dry
	mileOnce  sync.Once
	exOnce    sync.Once
}

func newControl(sizeAt int64) *control {
	return &control{sizeAt: sizeAt, milestone: make(chan struct{}), exhausted: make(chan struct{})}
}

func (ctl *control) set(slice int, mode int32) { ctl.phase.Store(int32(slice)<<modeBits | mode) }

// slotStats are one client's figures for one slice of the measured phase.
type slotStats struct {
	done, writes        int64
	lookup, scan, write hist // latencies, kept for untraced slices
}

// replayDelete flags a delete in a replay record's key; Weblogs keys are
// millisecond timestamps far below 2^63.
const replayDelete = 1 << 63

type replayRec struct{ op, key uint64 }

// maxFailures bounds the failure messages a client keeps.
const maxFailures = 5

// client is one closed-loop client: it issues its next operation only
// after the previous one returned, checks every result against what it
// knows, and times each call.
type client struct {
	id    int
	st    store
	ref   *fitingtree.Tree[uint64, uint64] // reference tree probed by traced lookups; nil untraced
	bp    func() uint64                    // BackpressureFolds; nil when the facade hides it
	sync  func() error                     // called once after the last operation; nil for in-memory facades
	bulk  []uint64
	never []uint64
	ops   []uint32
	pool  []uint64
	next  int

	live    []uint64            // own inserts not deleted since
	recent  []uint64            // ring of the latest own inserts
	recentN int                 // inserts written into recent so far
	deleted map[uint64]struct{} // own deletes

	ctl        *control
	tr         *tracer
	spans      *spanBuf
	statsEvery uint64 // ladder sample interval in operations; 0 = never
	replay     []replayRec
	opSeq      uint64
	probes     uint64

	slots     []slotStats // per slice of the measured phase
	attempted int64
	failed    int64
	failures  []string
	syncErr   error

	tLookup, base, deltaW, stall hist // traced slices
	treeNs, pageNs, breakdowns   int64
	ladderDepth, ladderPending   int64
	ladderSamples                int64

	scanFn                   func(k, v uint64) bool
	scanLo, scanHi, scanPrev uint64
	scanAt, scanEnd          int
	scanFirst, scanBad       bool
}

// newClient prepares client id. Its bookkeeping is sized for the writes
// it can issue before the size milestone, so the heap the harness itself
// holds does not grow before sizes are measured.
func newClient(id int, sp spec, seed int64, ds *dataset, ctl *control, slices int) *client {
	c := &client{
		id:      id,
		bulk:    ds.bulk,
		never:   ds.never,
		ops:     makeOps(seed, id, sp.ringLen, sp.mix),
		pool:    ds.pools[id],
		live:    make([]uint64, 0, ctl.sizeAt+1),
		recent:  make([]uint64, recentRing),
		deleted: make(map[uint64]struct{}, ctl.sizeAt),
		ctl:     ctl,
		slots:   make([]slotStats, slices),
	}
	c.scanFn = c.visit
	return c
}

func (c *client) fail(msg string) {
	c.failed++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, fmt.Sprintf("client %d: %s", c.id, msg))
	}
}

// loop runs operations until the mode turns to stop or the client's
// insert pool runs dry, then makes its writes durable if the facade is.
func (c *client) loop() {
	mask := len(c.ops) - 1
	for i := 0; ; {
		p := c.ctl.phase.Load()
		mode := p & modeMask
		if mode == modeStop {
			break
		}
		if mode == modeHold {
			c.ctl.held.Add(1)
			for c.ctl.phase.Load()&modeMask == modeHold {
				time.Sleep(20 * time.Microsecond)
			}
			c.ctl.held.Add(-1)
			continue
		}
		if !c.step(c.ops[i&mask], mode, int(p>>modeBits)) {
			c.ctl.exOnce.Do(func() { close(c.ctl.exhausted) })
			break
		}
		i++
	}
	c.ctl.running.Add(-1)
	if c.sync != nil {
		c.syncErr = c.sync()
	}
}

// step runs one operation in the given mode and slice. It returns false
// when the op is an insert and the pool is empty.
func (c *client) step(code uint32, mode int32, slice int) bool {
	kind, payload := opOf(code)
	traced := mode == modeTraced
	var slot *slotStats
	if mode != modeWarmup {
		slot = &c.slots[slice]
	}
	c.opSeq++
	op := uint64(c.id+1)<<48 | c.opSeq
	switch kind {
	case opLookup, opLookupMiss, opLookupRecent:
		var k uint64
		want := true
		switch kind {
		case opLookup:
			k = c.bulk[pick(payload, len(c.bulk))]
		case opLookupMiss:
			k = c.never[pick(payload, len(c.never))]
			want = false
		default:
			if c.recentN == 0 {
				return true
			}
			k = c.recent[pick(payload, min(c.recentN, len(c.recent)))]
			_, gone := c.deleted[k]
			want = !gone
		}
		start := time.Now()
		v, ok := c.st.Lookup(k)
		d := time.Since(start)
		if ok != want || (ok && v != k) {
			c.fail(fmt.Sprintf("Lookup(%d) = %d, %v; want found=%v", k, v, ok, want))
		}
		if mode == modeUntraced {
			slot.lookup.record(d)
		}
		if traced {
			c.traceLookup(op, k, start, d)
		}
	case opScan:
		i := pick(payload, len(c.bulk)-scanRows+1)
		c.scanAt, c.scanEnd = i, i+scanRows
		c.scanLo, c.scanHi = c.bulk[i], c.bulk[i+scanRows-1]
		c.scanFirst, c.scanBad = true, false
		start := time.Now()
		c.st.AscendRange(c.scanLo, c.scanHi, c.scanFn)
		d := time.Since(start)
		if c.scanBad || c.scanAt != c.scanEnd {
			c.fail(fmt.Sprintf("AscendRange(%d, %d): out of order, out of range, or missing stored key %d",
				c.scanLo, c.scanHi, c.bulk[min(c.scanAt, c.scanEnd-1)]))
		}
		if mode == modeUntraced {
			slot.scan.record(d)
		}
		if traced {
			c.spans.add(c.tr.origin, op, -1, spanScan, start, d)
		}
	case opInsert:
		if c.next == len(c.pool) {
			return false
		}
		k := c.pool[c.next]
		c.next++
		bp := c.bpBefore(traced)
		start := time.Now()
		err := c.st.Insert(k, k)
		d := time.Since(start)
		if err != nil {
			c.fail(fmt.Sprintf("Insert(%d): %v", k, err))
		} else {
			c.live = append(c.live, k)
			c.recent[c.recentN%len(c.recent)] = k
			c.recentN++
		}
		c.wrote(op, spanInsert, k, start, d, bp, mode, slot)
	case opDelete:
		if len(c.live) == 0 {
			return true
		}
		j := pick(payload, len(c.live))
		k := c.live[j]
		c.live[j] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		bp := c.bpBefore(traced)
		start := time.Now()
		ok, err := c.st.Delete(k)
		d := time.Since(start)
		if err != nil || !ok {
			c.fail(fmt.Sprintf("Delete(%d) of an own insert = %v, %v", k, ok, err))
		}
		c.deleted[k] = struct{}{}
		c.wrote(op, spanDelete, k|replayDelete, start, d, bp, mode, slot)
	}
	c.attempted++
	if slot != nil {
		slot.done++
	}
	if traced && c.statsEvery > 0 && c.opSeq%c.statsEvery == 0 {
		c.sampleLadder(op)
	}
	return true
}

// visit checks one row of a scan: ascending, inside the range, value ==
// key, and every bulk-loaded key of the range present. Keys other
// clients inserted may sit between them.
func (c *client) visit(k, v uint64) bool {
	if k < c.scanLo || k > c.scanHi || v != k || (!c.scanFirst && k <= c.scanPrev) {
		c.scanBad = true
		return false
	}
	c.scanFirst, c.scanPrev = false, k
	if c.scanAt < c.scanEnd {
		if want := c.bulk[c.scanAt]; k == want {
			c.scanAt++
		} else if k > want {
			c.scanBad = true
			return false
		}
	}
	return true
}

func (c *client) bpBefore(traced bool) uint64 {
	if traced && c.bp != nil {
		return c.bp()
	}
	return 0
}

// wrote accounts one insert or delete.
func (c *client) wrote(op uint64, kind spanKind, key uint64, start time.Time, d time.Duration, bp uint64, mode int32, slot *slotStats) {
	if c.ref != nil {
		c.replay = append(c.replay, replayRec{op, key})
	}
	if slot == nil {
		return
	}
	slot.writes++
	if c.ctl.sizeAt > 0 && c.ctl.writes.Add(1) == c.ctl.sizeAt {
		c.ctl.mileOnce.Do(func() { close(c.ctl.milestone) })
	}
	if mode == modeUntraced {
		slot.write.record(d)
		return
	}
	c.spans.add(c.tr.origin, op, -1, kind, start, d)
	if c.bp != nil {
		if c.bp() != bp {
			c.stall.record(d)
		} else {
			c.deltaW.record(d)
		}
	}
}

// traceLookup records a traced lookup and probes the reference tree with
// the same key, alternating LookupBreakdown (router and page time) with
// a plain Lookup so neither probe runs on the other's warm cache lines.
func (c *client) traceLookup(op, k uint64, start time.Time, d time.Duration) {
	sid := c.spans.add(c.tr.origin, op, -1, spanLookup, start, d)
	c.tLookup.record(d)
	c.probes++
	s := time.Now()
	if c.probes&1 == 0 {
		_, _, treeNs, pageNs := c.ref.LookupBreakdown(k)
		c.spans.add(c.tr.origin, op, sid, spanRefBreakdown, s, time.Since(s))
		c.treeNs += treeNs
		c.pageNs += pageNs
		c.breakdowns++
		return
	}
	c.ref.Lookup(k)
	d2 := time.Since(s)
	c.base.record(d2)
	c.spans.add(c.tr.origin, op, sid, spanRefLookup, s, d2)
}

// sampleLadder reads the merge ladder's shape. Stats walks every page,
// so it runs only every statsEvery traced operations.
func (c *client) sampleLadder(op uint64) {
	s := time.Now()
	st := c.st.Stats()
	c.spans.add(c.tr.origin, op, -1, spanStats, s, time.Since(s))
	c.ladderDepth += int64(st.FrozenLayers)
	for _, n := range st.LayerPending {
		c.ladderPending += int64(n)
	}
	c.ladderSamples++
}
