package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	nanos "repro"
)

// workload is one seeded task program. Its steps are issued in a closed
// loop by one generator, the root task: each step starts after the
// previous one has returned.
type workload interface {
	// config returns the runtime configuration the workload runs: the
	// shipped defaults plus Workers and Debug, and nothing else except
	// the throttle window of spawn-chain.
	config(workers int) nanos.Config
	// programPerStep reports whether each step is a whole program (its
	// own New and Run); otherwise every step runs inside one Run.
	programPerStep() bool
	// prepare generates the seeded inputs.
	prepare()
	// register creates the data objects on a new runtime and resets the
	// data the program computes on to the inputs.
	register(rt *nanos.Runtime)
	// step issues step k from the root task; sp is the span the step's
	// calls nest under.
	step(b *bench, tc *nanos.TaskContext, sp int32, k int)
	// reference advances the sequential-elision reference past step k:
	// the same kernels in program order, single-threaded, no runtime.
	reference(k int)
	// verify reports whether the program's output equals the reference.
	verify() bool
	// warmups is the number of untimed steps that end set-up.
	warmups() int
	// preds lists the strong predecessors of task within step k's program.
	preds(k, task int32) []int32
	// spansPerStep bounds the spans one traced step records.
	spansPerStep() int
}

// bench runs workloads. tr is the current session's tracer (nil for an
// untraced session); every call into the runtime goes through the
// wrappers below, which record a span around it when tr is set.
type bench struct {
	workers int
	tr      *tracer
	// waits and graphs count the Taskwait and Graph calls issued.
	waits, graphs atomic.Int64
}

func (b *bench) newRuntime(w workload, parent, step int32) *nanos.Runtime {
	id := b.tr.begin(kNew, parent, step, -1, -1)
	rt := nanos.New(w.config(b.workers))
	b.tr.end(id, -1)
	return rt
}

// submit submits a task whose body calls nothing in the runtime.
func (b *bench) submit(tc *nanos.TaskContext, parent, step, task int32, spec nanos.TaskSpec) {
	t := b.tr
	if t == nil {
		tc.Submit(spec)
		return
	}
	id := t.begin(kSubmit, parent, step, task, tc.Worker())
	body := spec.Body
	spec.Body = func(tc *nanos.TaskContext) {
		bid := t.begin(kBody, id, step, task, tc.Worker())
		body(tc)
		t.end(bid, tc.Worker())
	}
	tc.Submit(spec)
	t.end(id, tc.Worker())
}

// submitNested submits a task whose body calls into the runtime; body gets
// the span its calls nest under.
func (b *bench) submitNested(tc *nanos.TaskContext, parent, step, task int32, spec nanos.TaskSpec, body func(*nanos.TaskContext, int32)) {
	t := b.tr
	if t == nil {
		spec.Body = func(tc *nanos.TaskContext) { body(tc, -1) }
		tc.Submit(spec)
		return
	}
	id := t.begin(kSubmit, parent, step, task, tc.Worker())
	spec.Body = func(tc *nanos.TaskContext) {
		bid := t.begin(kBody, id, step, task, tc.Worker())
		body(tc, bid)
		t.end(bid, tc.Worker())
	}
	tc.Submit(spec)
	t.end(id, tc.Worker())
}

func (b *bench) taskwait(tc *nanos.TaskContext, parent, step int32) {
	b.waits.Add(1)
	id := b.tr.begin(kTaskwait, parent, step, -1, tc.Worker())
	tc.Taskwait()
	b.tr.end(id, tc.Worker())
}

func (b *bench) release(tc *nanos.TaskContext, parent, step int32, d nanos.Dep) {
	id := b.tr.begin(kRelease, parent, step, -1, tc.Worker())
	tc.Release(d)
	b.tr.end(id, tc.Worker())
}

func (b *bench) graph(tc *nanos.TaskContext, parent, step int32, name string, body func(*nanos.TaskContext, int32)) {
	b.graphs.Add(1)
	id := b.tr.begin(kGraph, parent, step, -1, tc.Worker())
	tc.Graph(name, func(tc *nanos.TaskContext) { body(tc, id) })
	b.tr.end(id, tc.Worker())
}

// worksharing submits a worksharing task; each chunk body gets a span.
func (b *bench) worksharing(tc *nanos.TaskContext, parent, step, task int32, spec nanos.WorksharingSpec) {
	t := b.tr
	if t == nil {
		tc.Worksharing(spec)
		return
	}
	id := t.begin(kWorksharing, parent, step, task, tc.Worker())
	body := spec.Body
	spec.Body = func(tc *nanos.TaskContext, lo, hi int64) {
		cid := t.begin(kChunk, id, step, task, tc.Worker())
		body(tc, lo, hi)
		t.end(cid, tc.Worker())
	}
	tc.Worksharing(spec)
	t.end(id, tc.Worker())
}

// Runtime counters read through the public accessors, as one array so
// snapshots subtract and add by index.
const (
	cTasks = iota
	cFragments
	cLinks
	cGrants
	cHandovers
	cThrParks
	cThrHandoffs
	cTwParks
	cTwHandoffs
	cReplays
	cFallbacks
	cWsRegions
	cWsChunks
	cWsHelperChunks
	cTaskNews
	cTaskGets
	cDepNews
	cDepGets
	nCounters
)

type counters [nCounters]int64

func snapshot(rt *nanos.Runtime) counters {
	var c counters
	c[cTasks] = rt.TaskCount()
	d := rt.DepStats()
	c[cFragments], c[cLinks], c[cGrants], c[cHandovers] = d.Fragments, d.Links+d.Inbounds, d.Grants, d.Handovers
	th := rt.ThrottleStats()
	c[cThrParks], c[cThrHandoffs] = th.Parks, th.Handoffs
	tw := rt.TaskwaitStats()
	c[cTwParks], c[cTwHandoffs] = tw.Parks, tw.Handoffs
	rp := rt.ReplayStats()
	c[cReplays], c[cFallbacks] = rp.Replays, rp.Fallbacks+rp.Invalidations
	ws := rt.WsStats()
	c[cWsRegions], c[cWsChunks], c[cWsHelperChunks] = ws.Regions, ws.Chunks, ws.HelperChunks
	tp := rt.TaskPoolStats()
	c[cTaskNews], c[cTaskGets] = tp.News, tp.Gets
	if ms, ok := rt.MemStats(); ok {
		for _, p := range []struct{ News, Gets int64 }{
			{ms.Nodes.News, ms.Nodes.Gets}, {ms.Fragments.News, ms.Fragments.Gets},
			{ms.Accesses.News, ms.Accesses.Gets}, {ms.AccessMaps.News, ms.AccessMaps.Gets},
			{ms.DomainMaps.News, ms.DomainMaps.Gets}, {ms.FragLists.News, ms.FragLists.Gets},
		} {
			c[cDepNews] += p.News
			c[cDepGets] += p.Gets
		}
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// leaks checks every pool the runtime exposes for objects still held out
// once Run has returned. Worker goroutines put their last task back just
// after the run ends, so the task pool gets a grace period.
func leaks(rt *nanos.Runtime) error {
	if ms, ok := rt.MemStats(); ok && ms.Outstanding() != 0 {
		return fmt.Errorf("dependency pools: %d outstanding", ms.Outstanding())
	}
	deadline := time.Now().Add(2 * time.Second)
	for rt.TaskPoolStats().Outstanding() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("task pool: %d outstanding", rt.TaskPoolStats().Outstanding())
		}
		time.Sleep(100 * time.Microsecond)
	}
	for name, o := range map[string]int64{
		"replay pool":       rt.ReplayPoolStats().Outstanding(),
		"worksharing pool":  rt.WsPoolStats().Outstanding(),
		"continuation pool": rt.ContPoolStats().Outstanding(),
	} {
		if o != 0 {
			return fmt.Errorf("%s: %d outstanding", name, o)
		}
	}
	return nil
}

// Go runtime samples: heap bytes in live and unswept objects, cumulative
// allocations, and the GC's and the whole process's CPU time.
var goSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type goStats struct {
	heap, allocObjs, allocBytes uint64
	gcCPU, totalCPU             float64
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		heap:       s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// phase is one session of a workload — set-up, then timed steps — and
// what it measured.
type phase struct {
	seconds  time.Duration // timed-loop length (0: set-up only)
	minSteps int
	maxTime  time.Duration // hard stop for the timed loop

	setupNs float64
	stepNs  []float64
	seqNs   []float64
	failed  int
	broken  error     // the whole session failed (run error, leak, bad warm-up)
	heap    []float64 // heap object bytes at every step boundary
	ctr     counters
	goDelta goStats
	windows []iv // traced step intervals
	// waits and graphs count the timed steps' Taskwait and Graph calls.
	waits, graphs int64
}

// session runs set-up and then timed steps until ph.seconds have passed
// and at least ph.minSteps steps ran.
func (b *bench) session(w workload, ph *phase) {
	// Collect the garbage of earlier sessions first, so that every set-up
	// and every timed loop starts from the same heap state.
	runtime.GC()
	t0 := time.Now()
	w.prepare()
	warm := w.warmups()
	if w.programPerStep() {
		rts := make([]*nanos.Runtime, warm)
		errs := make([]error, warm)
		for k := range rts {
			rts[k], errs[k] = b.program(w, k, -1)
		}
		ph.setupNs = float64(time.Since(t0))
		for k, rt := range rts {
			if err := drained(rt, errs[k]); err != nil {
				ph.broken = err
			}
		}
		b.checkWarmups(w, ph)
		ph.loop(b, w, func(k int, sp int32) (*nanos.Runtime, error) { return b.program(w, k, sp) })
		return
	}
	rt := b.newRuntime(w, -1, -1)
	w.register(rt)
	err := rt.RunChecked(func(tc *nanos.TaskContext) {
		root := b.tr.begin(kRoot, -1, -1, -1, tc.Worker())
		for k := 0; k < warm; k++ {
			w.step(b, tc, root, k)
		}
		ph.setupNs = float64(time.Since(t0))
		b.checkWarmups(w, ph)
		before := snapshot(rt)
		ph.loop(b, w, func(k int, sp int32) (*nanos.Runtime, error) {
			w.step(b, tc, sp, k)
			return nil, nil
		})
		ph.ctr = snapshot(rt).sub(before)
		b.tr.end(root, tc.Worker())
	})
	if err := drained(rt, err); err != nil {
		ph.broken = err
	}
}

// program runs step k as a whole program: New, data registration, Run.
func (b *bench) program(w workload, k int, sp int32) (*nanos.Runtime, error) {
	rt := b.newRuntime(w, sp, int32(k))
	w.register(rt)
	err := rt.RunChecked(func(tc *nanos.TaskContext) {
		root := b.tr.begin(kRoot, sp, int32(k), -1, tc.Worker())
		w.step(b, tc, root, k)
		b.tr.end(root, tc.Worker())
	})
	return rt, err
}

// drained returns the run's error, or else any pool leak.
func drained(rt *nanos.Runtime, runErr error) error {
	if runErr != nil {
		return runErr
	}
	return leaks(rt)
}

// checkWarmups compares the output of the warm-up steps with the
// reference, after the set-up timing has stopped.
func (b *bench) checkWarmups(w workload, ph *phase) {
	for k := 0; k < w.warmups(); k++ {
		w.reference(k)
	}
	if !w.verify() && ph.broken == nil {
		ph.broken = errors.New("warm-up: output differs from the sequential reference")
	}
}

// loop runs the timed steps, numbered after the warm-up steps. Each step
// is timed alone. Outside the timing, the heap is sampled at every step
// boundary, a step that ran a whole program (run returns its runtime) is
// checked for leaks and its counters added, and the reference is advanced
// and compared.
func (ph *phase) loop(b *bench, w workload, run func(k int, sp int32) (*nanos.Runtime, error)) {
	if ph.seconds <= 0 {
		return
	}
	runtime.GC()
	heapSample := []metrics.Sample{{Name: goSampleNames[0]}}
	g0 := readGoStats()
	ph.heap = append(ph.heap, float64(g0.heap))
	waits0, graphs0 := b.waits.Load(), b.graphs.Load()
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (i >= ph.minSteps && el >= ph.seconds) || el >= ph.maxTime || !b.tr.room(w.spansPerStep()) {
			break
		}
		k := w.warmups() + i
		sp := b.tr.begin(kStep, -1, int32(k), -1, -1)
		s := time.Now()
		rt, err := run(k, sp)
		ph.stepNs = append(ph.stepNs, float64(time.Since(s)))
		b.tr.end(sp, -1)
		if sp >= 0 {
			s := b.tr.spans[sp]
			ph.windows = append(ph.windows, iv{s.start, s.end, -1})
		}
		metrics.Read(heapSample)
		ph.heap = append(ph.heap, float64(heapSample[0].Value.Uint64()))
		if rt != nil {
			err = drained(rt, err)
			ph.ctr.add(snapshot(rt))
		}
		s = time.Now()
		w.reference(k)
		ph.seqNs = append(ph.seqNs, float64(time.Since(s)))
		if err != nil || !w.verify() {
			ph.failed++
		}
	}
	ph.waits, ph.graphs = b.waits.Load()-waits0, b.graphs.Load()-graphs0
	g1 := readGoStats()
	ph.goDelta = goStats{
		allocObjs:  g1.allocObjs - g0.allocObjs,
		allocBytes: g1.allocBytes - g0.allocBytes,
		gcCPU:      g1.gcCPU - g0.gcCPU,
		totalCPU:   g1.totalCPU - g0.totalCPU,
	}
}

// attempted and failedSteps count a broken session as every step failed.
func (ph *phase) attempted() int { return max(len(ph.stepNs), 1) }

func (ph *phase) failedSteps() int {
	if ph.broken != nil {
		return ph.attempted()
	}
	return ph.failed
}
