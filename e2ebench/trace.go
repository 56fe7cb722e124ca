package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names the benchmark-side boundary a span wraps: a call into the
// runtime's public API, a task body, or a workload step.
type spanKind uint8

const (
	kNew         spanKind = iota // nanos.New
	kRoot                        // the root closure passed to Run
	kStep                        // one timed workload step
	kSubmit                      // TaskContext.Submit
	kTaskwait                    // TaskContext.Taskwait
	kGraph                       // TaskContext.Graph
	kWorksharing                 // TaskContext.Worksharing
	kRelease                     // TaskContext.Release
	kBody                        // a task body
	kChunk                       // one worksharing chunk body
)

var kindNames = [...]string{"new", "root", "step", "submit", "taskwait", "graph", "worksharing", "release", "body", "chunk"}

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch; w0 and w1 are the worker (tc.Worker()) holding the task when the
// span began and when it ended — they differ when a Taskwait or a throttled
// Submit lent the worker out and the task resumed elsewhere.
type span struct {
	start, end int64
	parent     int32 // the span that caused this one, -1 for none
	step       int32 // workload step index, -1 outside steps
	task       int32 // task index within the step's program, -1 for none
	w0, w1     int8  // -1 when not on a worker (the main goroutine)
	kind       spanKind
}

// tracer records spans into a preallocated buffer: begin claims a slot with
// one atomic add, and only the goroutine that began a span ends it, so no
// lock is needed. Spans past the buffer's capacity are dropped (begin
// returns -1); the traced pass stops issuing steps before that happens.
// A nil *tracer records nothing, which is how the untraced pass runs the
// same workload code.
type tracer struct {
	epoch time.Time
	spans []span
	next  atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) begin(k spanKind, parent, step, task int32, w int) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: int64(time.Since(t.epoch)), end: -1, parent: parent, step: step, task: task, w0: int8(w), w1: int8(w), kind: k}
	return int32(i)
}

func (t *tracer) end(id int32, w int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	s.w1 = int8(w)
}

// room reports whether n more spans fit in the buffer (always, untraced).
func (t *tracer) room(n int) bool {
	return t == nil || t.next.Load()+int64(n) <= int64(len(t.spans))
}

// recorded returns the spans begun so far. Call it only once every
// goroutine that began a span has ended it (after Run returns).
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// writeSpans writes spans as tab-separated rows; a span's id is its row
// number (0-based, after the header), which parent refers to.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "kind\tstart_ns\tend_ns\tparent\tstep\ttask\tw0\tw1")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", kindNames[s.kind], s.start, s.end, s.parent, s.step, s.task, s.w0, s.w1)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// iv is a half-open time interval [lo, hi) attributed to worker w.
type iv struct {
	lo, hi int64
	w      int
}

// children indexes the direct children of every span, each list in start
// order.
func children(spans []span) [][]int32 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for _, k := range kids {
		sort.Slice(k, func(a, b int) bool { return spans[k[a]].start < spans[k[b]].start })
	}
	return kids
}

// selfSegs returns the parts of span i that none of its direct children
// cover, each attributed to the worker that held the task at the time: the
// span's start worker up to its first child, then each child's end worker
// (a Taskwait child that lent the worker out may return on another one).
// A task's children run on its own goroutine, so they never overlap.
func selfSegs(spans []span, kids []int32, i int32) []iv {
	s := spans[i]
	var out []iv
	cur, w := s.start, int(s.w0)
	for _, k := range kids {
		c := spans[k]
		if c.end < 0 {
			continue
		}
		if c.start > cur {
			out = append(out, iv{cur, c.start, w})
		}
		if c.end > cur {
			cur = c.end
		}
		w = int(c.w1)
	}
	if s.end > cur {
		out = append(out, iv{cur, s.end, w})
	}
	return out
}

// covered returns, for each of workers, how much of the windows the union
// of ivs on that worker covers. windows must be sorted and disjoint.
func covered(ivs []iv, windows []iv, workers int) []int64 {
	per := make([][]iv, workers)
	for _, x := range ivs {
		if x.w >= 0 && x.w < workers && x.hi > x.lo {
			per[x.w] = append(per[x.w], x)
		}
	}
	out := make([]int64, workers)
	for w, xs := range per {
		sort.Slice(xs, func(a, b int) bool { return xs[a].lo < xs[b].lo })
		var merged []iv
		for _, x := range xs {
			if n := len(merged); n > 0 && x.lo <= merged[n-1].hi {
				if x.hi > merged[n-1].hi {
					merged[n-1].hi = x.hi
				}
				continue
			}
			merged = append(merged, x)
		}
		j := 0
		for _, m := range merged {
			for j < len(windows) && windows[j].hi <= m.lo {
				j++
			}
			for k := j; k < len(windows) && windows[k].lo < m.hi; k++ {
				lo, hi := max(m.lo, windows[k].lo), min(m.hi, windows[k].hi)
				if hi > lo {
					out[w] += hi - lo
				}
			}
		}
	}
	return out
}

// inWindows reports whether time t lies in one of the sorted windows.
func inWindows(t int64, windows []iv) bool {
	i := sort.Search(len(windows), func(i int) bool { return windows[i].hi > t })
	return i < len(windows) && windows[i].lo <= t
}

// dispatchGaps returns, per worker, the time from the moment a worker
// became free — a body ended on it, or a Taskwait lent it out — to the
// next body start on it, for starts inside the windows. A Taskwait return
// makes its worker busy again without a sample.
func dispatchGaps(spans []span, windows []iv) []float64 {
	type ev struct {
		t    int64
		w    int
		kind int8 // 0 free, 1 busy again, 2 body start
	}
	var evs []ev
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		switch s.kind {
		case kBody, kChunk:
			evs = append(evs, ev{s.start, int(s.w0), 2}, ev{s.end, int(s.w1), 0})
		case kTaskwait:
			evs = append(evs, ev{s.start, int(s.w0), 0}, ev{s.end, int(s.w1), 1})
		}
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
	free := map[int]int64{}
	var gaps []float64
	for _, e := range evs {
		switch e.kind {
		case 0:
			free[e.w] = e.t
		case 1:
			delete(free, e.w)
		case 2:
			if f, ok := free[e.w]; ok && inWindows(e.t, windows) {
				gaps = append(gaps, float64(e.t-f))
			}
			delete(free, e.w)
		}
	}
	return gaps
}

// taskKey identifies one task of one step's program.
type taskKey struct{ step, task int32 }

// taskTimes collects what the per-task metrics need: when the Submit (or
// Worksharing) call returned and on which worker, and when and where the
// task's body (its first chunk, for a worksharing task) started and ended.
type taskTimes struct {
	submitEnd, start, end int64
	submitW, startW       int
	submitted, started    bool
}

func collectTasks(spans []span) map[taskKey]*taskTimes {
	m := map[taskKey]*taskTimes{}
	get := func(s span) *taskTimes {
		k := taskKey{s.step, s.task}
		t := m[k]
		if t == nil {
			t = &taskTimes{}
			m[k] = t
		}
		return t
	}
	for _, s := range spans {
		if s.task < 0 || s.end < 0 {
			continue
		}
		switch s.kind {
		case kSubmit, kWorksharing:
			t := get(s)
			t.submitEnd, t.submitW, t.submitted = s.end, int(s.w1), true
		case kBody, kChunk:
			t := get(s)
			if !t.started || s.start < t.start {
				t.start, t.startW = s.start, int(s.w0)
			}
			if !t.started || s.end > t.end {
				t.end = s.end
			}
			t.started = true
		}
	}
	return m
}

// releaseToStart returns, for every task started inside the windows, its
// body start minus the later of its own Submit return and its last strong
// predecessor's body end (preds names the predecessors, which the
// benchmark knows because it generated the program). A body that starts
// before its submitter's Submit call has returned counts as 0.
func releaseToStart(tasks map[taskKey]*taskTimes, preds func(step, task int32) []int32, windows []iv) []float64 {
	var out []float64
	for k, t := range tasks {
		if !t.started || !t.submitted || !inWindows(t.start, windows) {
			continue
		}
		ready := t.submitEnd
		for _, p := range preds(k.step, k.task) {
			if pt := tasks[taskKey{k.step, p}]; pt != nil && pt.started && pt.end > ready {
				ready = pt.end
			}
		}
		out = append(out, float64(max(t.start-ready, 0)))
	}
	return out
}
