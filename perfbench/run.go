package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"fitingtree"
)

// runParams are one run's settings beyond the workload itself.
type runParams struct {
	seed    int64
	seconds float64
	trace   bool
	tmpDir  string // parent of the durable store's directory
}

// traceSlice is how long each untraced or traced slice of a traced run
// lasts. Alternating short slices charges drift in the data (the index
// grows as a run inserts) to both sides equally.
const traceSlice = 250 * time.Millisecond

// ladderEvery is the op interval between merge-ladder samples.
const ladderEvery = 4096

// report is everything a run measured and checked.
type report struct {
	clients   int
	correct   bool
	attempted int64
	failed    int64
	problems  []string // what the checks found wrong; any makes the run incorrect
	notes     []string // what a reader of the figures should know
	vals      values   // endToEnd and perLayer metrics by name
	extras    []metric // ungated figures printed beside them
}

func (r *report) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) extra(name, unit string, v float64) {
	r.extras = append(r.extras, metric{name, unit, v})
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// session is one run in progress: the workload, its inputs, the clients
// and the facade they drive.
type session struct {
	sp       spec
	p        runParams
	rep      *report
	ds       *dataset
	ctl      *control
	cs       []*client
	tr       *tracer                          // nil untraced
	ref      *fitingtree.Tree[uint64, uint64] // reference tree; nil untraced
	r        *rig
	folds    foldLog
	heapBase uint64 // live heap before set-up, with every harness buffer allocated
	sized    bool
	stores   []string // durable store directories, removed when the run ends

	// Facade counters at the start of the measured phase.
	counters0 fitingtree.Counters
	bp0, gen0 uint64
}

// phaseRecord is what the coordinator measured over the measured phase.
type phaseRecord struct {
	start, end time.Time
	measured   time.Duration   // running time, excluding the size hold
	sliceTime  []time.Duration // per slice that ran
	// granted is each slice's running time scaled by the share of the
	// machine's CPU time the hypervisor did not steal in it. ops_per_s
	// and trace.overhead_frac count operations per granted second: on a
	// shared host the stolen share swings from nothing to a fifth within
	// minutes, and would otherwise move every throughput figure with it.
	granted   []time.Duration
	modeTime  [modeStop]time.Duration // granted time per mode
	modeAlloc [modeStop]uint64        // bytes allocated per mode
	gcCount   uint32
	gcPause   time.Duration
}

// run executes one workload: set-up, warm-up, the measured phase, and
// the end-of-run checks. Without p.trace the measured phase is cut into
// one-second slices and each end-to-end figure is the median over them,
// so a burst of interference from outside the benchmark moves few
// slices. With p.trace the slices alternate untraced and traced and the
// report carries per-layer metrics.
func run(sp spec, p runParams, traceOut string) (*report, error) {
	s, err := newSession(sp, p)
	if err != nil {
		return nil, err
	}
	defer s.removeStores()
	if err := s.setUp(); err != nil {
		return nil, err
	}
	ph := s.measure()
	m := s.merge(len(ph.sliceTime))
	if err := s.finish(ph, m); err != nil {
		return nil, err
	}
	if err := s.summarize(ph, m, traceOut); err != nil {
		return nil, err
	}
	return s.rep, nil
}

func newSession(sp spec, p runParams) (*session, error) {
	clients := min(sp.clients, runtime.NumCPU())
	s := &session{sp: sp, p: p, rep: &report{clients: clients, correct: true, vals: values{}}}
	// Layers a workload does not exercise read 0.
	for _, d := range perLayer {
		s.rep.vals[d.Name] = 0
	}
	var err error
	if s.ds, err = makeDataset(p.seed, sp.bulk, sp.never, sp.pool, clients); err != nil {
		return nil, err
	}
	sizeAt := int64(sp.sizeAt)
	if p.trace {
		sizeAt = 0
		s.tr = newTracer(clients)
		if s.ref, err = fitingtree.BulkLoad(s.ds.bulk, s.ds.bulk, indexOptions); err != nil {
			return nil, err
		}
	}
	s.ctl = newControl(sizeAt)
	for i := range clients {
		c := newClient(i, sp, p.seed, s.ds, s.ctl, s.slices())
		if p.trace {
			c.ref, c.tr, c.spans = s.ref, s.tr, s.tr.clients[i]
			if i == 0 {
				c.statsEvery = ladderEvery
			}
		}
		s.cs = append(s.cs, c)
	}
	return s, nil
}

// removeStores deletes the durable stores the run created.
func (s *session) removeStores() {
	for _, dir := range s.stores {
		if err := os.RemoveAll(dir); err != nil {
			s.rep.notes = append(s.rep.notes, fmt.Sprintf("removing %s: %v", dir, err))
		}
	}
}

func (s *session) sliceLen() time.Duration {
	if s.p.trace {
		return traceSlice
	}
	return time.Second
}

func (s *session) total() time.Duration { return time.Duration(s.p.seconds * float64(time.Second)) }

func (s *session) slices() int { return int((s.total() + s.sliceLen() - 1) / s.sliceLen()) }

// modeOf is the mode of slice i: traced runs alternate, starting untraced.
func (s *session) modeOf(i int) int32 {
	if s.p.trace && i%2 == 1 {
		return modeTraced
	}
	return modeUntraced
}

// setUp builds the facade sp.setups times, reporting the median set-up
// time, and keeps the last one.
func (s *session) setUp() error {
	// Everything the harness holds until the size milestone is allocated
	// by now, so the facade's heap is what the live heap adds to this.
	s.heapBase = liveHeap()
	setups := s.sp.setups
	if s.p.trace {
		setups = 1
	}
	// Like throughput, set-up time is scaled by the share of CPU time the
	// hypervisor granted while the set-ups ran; the raw median is printed
	// as setup_wall_s.
	var times []float64
	var stolen, ticks uint64
	for range setups {
		if s.r != nil {
			if err := s.r.discard(); err != nil {
				return fmt.Errorf("discarding a set-up: %w", err)
			}
		}
		runtime.GC()
		st0, tk0 := cpuSteal()
		r, d, err := setUp(s.sp, s.ds, s.p.tmpDir, s.tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		st1, tk1 := cpuSteal()
		stolen, ticks = stolen+st1-st0, ticks+tk1-tk0
		s.r = r
		if r.dir != "" {
			s.stores = append(s.stores, r.dir)
		}
		times = append(times, d.Seconds())
	}
	s.rep.vals["setup_s"] = median(times) * (1 - ratio(int64(stolen), int64(ticks)))
	s.rep.extra("setup_wall_s", "s", median(times))
	if s.p.trace && s.r.opt != nil {
		s.r.opt.SetFlushHook(s.folds.fire)
	}
	for _, c := range s.cs {
		c.st = s.r.st
		if s.r.opt != nil {
			c.bp = s.r.opt.BackpressureFolds
		} else {
			c.sync = s.r.dur.Sync
		}
	}
	return nil
}

// measureSize reads index_bytes and heap_bytes_per_key with every
// pending write folded and no background fold or checkpoint running, so
// they describe the structure after a fixed number of writes rather than
// wherever the merge ladder happened to be.
func (s *session) measureSize() {
	async := runtime.GOMAXPROCS(0) > 1
	if r := s.r; r.opt != nil {
		r.opt.Close()
		defer r.opt.SetAsyncFlush(async)
	} else {
		r.dur.SetAutoCheckpoint(false)
		r.dur.SetAsyncFlush(false)
		r.dur.SyncFlush()
		defer func() {
			r.dur.SetAsyncFlush(async)
			r.dur.SetAutoCheckpoint(true)
		}()
	}
	st := s.r.st.Stats()
	s.rep.vals["index_bytes"] = float64(st.IndexSize)
	s.rep.vals["heap_bytes_per_key"] = (float64(liveHeap()) - float64(s.heapBase)) / float64(s.r.st.Len())
	s.rep.extra("size_measured_after_writes", "count", float64(s.ctl.writes.Load()))
	s.sized = true
}

// measure starts the clients, warms up, runs the measured phase slice by
// slice, and stops the clients.
func (s *session) measure() phaseRecord {
	var ph phaseRecord
	var wg sync.WaitGroup
	s.ctl.running.Store(int32(len(s.cs)))
	for _, c := range s.cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop()
		}()
	}
	total := s.total()
	stopped := sleepOr(min(time.Second, total/10), s.ctl.exhausted)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0, alloc := ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc
	if s.r.opt != nil {
		s.counters0, s.bp0 = s.r.opt.Counters(), s.r.opt.BackpressureFolds()
	} else {
		s.gen0 = s.r.dur.Generation()
		s.r.fsys.reset()
		s.r.dev.reset()
	}
	steal0, ticks0 := cpuSteal()
	steal, ticks := steal0, ticks0
	milestone := s.ctl.milestone
	if s.ctl.sizeAt == 0 {
		milestone = nil
	}
	ph.start = time.Now()
	for i := 0; i < s.slices() && !stopped; i++ {
		mode := s.modeOf(i)
		s.tr.setOn(mode == modeTraced)
		s.ctl.set(i, mode)
		var active time.Duration
		active, stopped, milestone = waitSlice(s.ctl, min(s.sliceLen(), total-ph.measured), milestone, s.measureSize)
		runtime.ReadMemStats(&ms)
		granted := active
		if st, tk := cpuSteal(); tk > ticks {
			granted = time.Duration(float64(active) * (1 - float64(st-steal)/float64(tk-ticks)))
			steal, ticks = st, tk
		}
		ph.sliceTime = append(ph.sliceTime, active)
		ph.granted = append(ph.granted, granted)
		ph.measured += active
		ph.modeTime[mode] += granted
		ph.modeAlloc[mode] += ms.TotalAlloc - alloc
		alloc = ms.TotalAlloc
	}
	ph.end = time.Now()
	s.tr.setOn(false)
	s.ctl.set(0, modeStop)
	wg.Wait()
	select {
	case <-s.ctl.exhausted:
		s.rep.notes = append(s.rep.notes, "a client used up its held-out keys; the measured phase ended early")
	default:
	}
	runtime.ReadMemStats(&ms)
	ph.gcCount, ph.gcPause = ms.NumGC-gc0, time.Duration(ms.PauseTotalNs-pause0)
	if steal1, ticks1 := cpuSteal(); ticks1 > ticks0 {
		s.rep.extra("cpu_steal_frac", "ratio", float64(steal1-steal0)/float64(ticks1-ticks0))
	}
	return ph
}

// merged are the clients' figures summed.
type merged struct {
	slots                        []slotStats // per slice that ran
	modeDone                     [modeStop]int64
	writes                       int64
	tLookup, base, deltaW, stall hist
	treeNs, pageNs, breakdowns   int64
	ladderDepth, ladderPending   int64
	ladderSamples                int64
	replays                      [][]replayRec
}

func (s *session) merge(ran int) *merged {
	m := &merged{slots: make([]slotStats, ran)}
	rep := s.rep
	for _, c := range s.cs {
		rep.attempted += c.attempted
		rep.failed += c.failed
		rep.problems = append(rep.problems, c.failures...)
		if c.syncErr != nil {
			rep.problem("client %d: final Sync: %v", c.id, c.syncErr)
		}
		for i := range m.slots {
			from, to := &c.slots[i], &m.slots[i]
			to.done += from.done
			to.writes += from.writes
			to.lookup.merge(&from.lookup)
			to.scan.merge(&from.scan)
			to.write.merge(&from.write)
		}
		m.tLookup.merge(&c.tLookup)
		m.base.merge(&c.base)
		m.deltaW.merge(&c.deltaW)
		m.stall.merge(&c.stall)
		m.treeNs += c.treeNs
		m.pageNs += c.pageNs
		m.breakdowns += c.breakdowns
		m.ladderDepth += c.ladderDepth
		m.ladderPending += c.ladderPending
		m.ladderSamples += c.ladderSamples
		m.replays = append(m.replays, c.replay)
	}
	for i := range m.slots {
		m.modeDone[s.modeOf(i)] += m.slots[i].done
		m.writes += m.slots[i].writes
	}
	if rep.failed > 0 {
		rep.correct = false
	}
	return m
}

// finish ends the run on the facade: it quiesces the facade, reads the
// figures only the facade knows, and checks the final state. For the
// durable workload that means killing the store and recovering it.
func (s *session) finish(ph phaseRecord, m *merged) error {
	r, rep := s.r, s.rep
	wantLen := len(s.ds.bulk)
	for _, c := range s.cs {
		wantLen += len(c.live)
	}
	var st fitingtree.Stats
	if r.opt != nil {
		counters, bp := r.opt.Counters(), r.opt.BackpressureFolds()
		r.opt.Close()
		if !s.sized && !s.p.trace {
			s.measureSize()
		}
		st = r.opt.Stats()
		verify(rep, r.st, s.ds, s.cs, wantLen, false)
		if s.p.trace {
			firings := s.folds.between(ph.start, ph.end)
			rep.vals["fold.count"] = float64(len(firings))
			if n := len(firings); n > 1 {
				rep.vals["fold.interval_ms"] = firings[n-1].Sub(firings[0]).Seconds() * 1000 / float64(n-1)
			}
			rep.vals["fold.pages_per_kwrite"] = ratio(int64(counters.PagesMade-s.counters0.PagesMade)*1000, m.writes)
			rep.vals["fold.backpressure_count"] = float64(bp - s.bp0)
		}
	} else {
		// Kill the store the moment the clients' final Syncs return: both
		// fault injectors trip, so nothing more reaches the files while
		// bytes already written stay in the OS cache, as after a process
		// kill. Reads keep working on the killed facade.
		r.ffs.SetTrip(0)
		r.fdev.SetTrip(0)
		if !s.sized && !s.p.trace {
			s.measureSize()
		}
		st = r.st.Stats()
		sizes := r.dur.ShardSizes()
		rep.vals["shard.size_skew"] = float64(slices.Max(sizes)) / float64(max(1, slices.Min(sizes)))
		rep.vals["shard.rebalances"] = float64(r.dur.Generation() - s.gen0)
		walSync, walBusy := r.fsys.syncs.snapshot()
		devSync, _ := r.dev.syncs.snapshot()
		rep.vals["wal.bytes_per_write"] = ratio(r.fsys.bytes.Load(), m.writes)
		rep.vals["wal.sync_count"] = float64(walSync.n)
		rep.vals["wal.sync_p50_us"] = quantileOrZero(&walSync, 0.5) / 1000
		rep.vals["wal.sync_busy_frac"] = walBusy.Seconds() / (ph.measured.Seconds() * float64(len(sizes)))
		rep.vals["ckpt.pages_written"] = float64(r.dev.writes.Load())
		rep.vals["ckpt.bytes_per_write"] = ratio(r.dev.bytes.Load(), m.writes)
		rep.vals["ckpt.dev_sync_count"] = float64(devSync.n)
		rep.vals["ckpt.dev_sync_p50_us"] = quantileOrZero(&devSync, 0.5) / 1000
		if err := recoverAfterKill(rep, r, s.ds, s.cs, wantLen); err != nil {
			return err
		}
	}
	rep.vals["router.height"] = float64(st.Height)
	rep.vals["page.count"] = float64(st.Pages)
	return nil
}

// summarize turns the merged figures into the report's metrics.
func (s *session) summarize(ph phaseRecord, m *merged, traceOut string) error {
	rep := s.rep
	// End-to-end figures: medians over the untraced slices.
	var rates, wallRates []float64
	for i, slot := range m.slots {
		if s.modeOf(i) == modeUntraced {
			rates = append(rates, float64(slot.done)/ph.granted[i].Seconds())
			wallRates = append(wallRates, float64(slot.done)/ph.sliceTime[i].Seconds())
		}
	}
	rep.extra("ops_per_s", "1/s", median(rates))
	rep.extra("ops_per_wall_s", "1/s", median(wallRates))
	if !s.p.trace {
		if err := latencies(rep, m.slots); err != nil {
			return err
		}
	}
	if rep.attempted > 0 {
		rep.extra("failed_op_frac", "ratio", float64(rep.failed)/float64(rep.attempted))
	}
	rep.extra("measured_s", "s", ph.measured.Seconds())
	if !s.p.trace {
		return nil
	}

	// Per-layer figures: the traced slices and the storage wrappers.
	rep.vals["router.descend_ns"] = ratio(m.treeNs, m.breakdowns)
	rep.vals["page.search_ns"] = ratio(m.pageNs, m.breakdowns)
	rep.vals["base.lookup_ns"] = m.base.mean()
	if m.tLookup.n > 0 {
		rep.vals["overlay.lookup_ns"] = m.tLookup.mean() - m.base.mean()
	}
	rep.vals["ladder.depth_mean"] = ratio(m.ladderDepth, m.ladderSamples)
	rep.vals["ladder.pending_mean"] = ratio(m.ladderPending, m.ladderSamples)
	rep.vals["delta.write_ns"] = m.deltaW.mean()
	rep.vals["fold.stall_us"] = m.stall.mean() / 1000
	rep.vals["alloc_bytes_per_op"] = ratio(int64(ph.modeAlloc[modeUntraced]), m.modeDone[modeUntraced])
	rep.vals["gc.count"] = float64(ph.gcCount)
	rep.vals["gc.pause_total_ms"] = ph.gcPause.Seconds() * 1000
	untraced := float64(m.modeDone[modeUntraced]) / ph.modeTime[modeUntraced].Seconds()
	traced := float64(m.modeDone[modeTraced]) / ph.modeTime[modeTraced].Seconds()
	rep.vals["trace.overhead_frac"] = (untraced - traced) / untraced
	rep.vals["core.write_ns"] = replay(rep, s.ref, s.tr, m.replays)
	if traceOut != "" {
		if err := s.tr.write(traceOut); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	rep.extra("trace.spans_dropped", "count", float64(s.tr.dropped()))
	return nil
}

// waitSlice lets one slice of the measured phase run for d. If the size
// milestone fires meanwhile, it parks the clients, runs measure with no
// facade call in flight, and extends the slice by the time parked. It
// returns the slice's running time, whether a client ran out of keys,
// and the milestone channel, nil once it has fired.
func waitSlice(ctl *control, d time.Duration, milestone chan struct{}, measure func()) (time.Duration, bool, chan struct{}) {
	start := time.Now()
	var parked time.Duration
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return time.Since(start) - parked, false, milestone
		case <-ctl.exhausted:
			return time.Since(start) - parked, true, milestone
		case <-milestone:
			milestone = nil
			h := time.Now()
			prev := ctl.phase.Load()
			ctl.phase.Store(prev&^modeMask | modeHold)
			for ctl.held.Load() < ctl.running.Load() {
				time.Sleep(50 * time.Microsecond)
			}
			measure()
			ctl.phase.Store(prev)
			parked += time.Since(h)
			timer.Reset(time.Until(start.Add(d + parked)))
		}
	}
}

// latencies reports the lookup, write and scan percentiles. p50 and p99
// are medians over the untraced slices; p99.9 and the sample counts are
// pooled over the run. Names declared in endToEnd go to the gated
// values, the rest to the extras.
func latencies(rep *report, slots []slotStats) error {
	gated := map[string]bool{}
	for _, d := range endToEnd {
		gated[d.Name] = true
	}
	for _, kind := range []struct {
		name string
		h    func(*slotStats) *hist
	}{
		{"lookup", func(s *slotStats) *hist { return &s.lookup }},
		{"write", func(s *slotStats) *hist { return &s.write }},
		{"scan", func(s *slotStats) *hist { return &s.scan }},
	} {
		var pooled hist
		for i := range slots {
			pooled.merge(kind.h(&slots[i]))
		}
		if pooled.n == 0 {
			continue
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			name := kind.name + "_" + q.suffix + "_us"
			var per []float64
			for i := range slots {
				if v, err := kind.h(&slots[i]).quantile(q.q); err == nil {
					per = append(per, v/1000)
				}
			}
			switch {
			case len(per) > 0 && gated[name]:
				rep.vals[name] = median(per)
			case len(per) > 0:
				rep.extra(name, "us", median(per))
			case gated[name]:
				_, err := pooled.quantile(q.q)
				return fmt.Errorf("%s: no slice has enough samples (%v)", name, err)
			default:
				rep.notes = append(rep.notes, name+" not reported: no slice has enough samples")
			}
		}
		if v, err := pooled.quantile(0.999); err == nil {
			rep.extra(kind.name+"_p999_us", "us", v/1000)
		} else {
			rep.notes = append(rep.notes, fmt.Sprintf("%s_p999_us not reported: %v", kind.name, err))
		}
		rep.extra(kind.name+"_samples", "count", float64(pooled.n))
	}
	return nil
}

// sleepOr sleeps for d or until stop closes, reporting the latter.
func sleepOr(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-stop:
		return true
	}
}

// cpuSteal returns the steal and total ticks of /proc/stat's cpu line:
// time the hypervisor ran something else while this machine's CPUs had
// work. Both are 0 where the file is unavailable.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// quantileOrZero is for layer figures: a layer with too few events to
// support the quantile reads 0.
func quantileOrZero(h *hist, q float64) float64 {
	v, err := h.quantile(q)
	if err != nil {
		return 0
	}
	return v
}
