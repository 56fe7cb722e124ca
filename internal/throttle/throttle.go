// Package throttle implements the runtime's bounded lookahead window: a
// cap on the number of dependency-ready tasks awaiting execution
// (core.Config.ThrottleOpenTasks, the paper's §III discussion of bounding
// how far task instantiation may run ahead of execution).
//
// A submitter that would push the window past its bound blocks — yielding
// its worker token so the blocked core still runs useful work — until
// started tasks free window slots. Only dependency-ready tasks count
// toward the window: a ready task needs nothing but a worker token, so the
// window always drains and a blocked submitter always wakes. (Counting all
// instantiated tasks would deadlock nested weak programs, where a task can
// be dependency-blocked on fragments that release only when its blocked
// submitter's own body finishes.)
//
// The window is an atomic occupancy counter with a mutex + condition
// variable slow path: Reserve checks the counter and returns at once while
// the window has room, and cond-waits above the bound; every Started
// broadcasts under the mutex.
package throttle

import (
	"sync"
	"sync/atomic"
)

// Yielder is the worker-token round-trip a blocking reserver performs: it
// releases its token while parked (so the core runs other ready tasks) and
// reacquires one before resuming. The runtime passes its ready pool
// (sched.Queue implements both methods); standalone drivers — benchmarks,
// the tests — may pass nil to park without a token round-trip.
type Yielder interface {
	// Yield releases the worker token while its holder blocks.
	Yield(worker int)
	// Acquire blocks until a worker token is available and returns it.
	Acquire() int
}

// Stats are diagnostic counters of a Window.
type Stats struct {
	// Parks counts reservers that found the window full and cond-waited.
	Parks int64
	// Handoffs is always 0: the window hands no credits directly to parked
	// reservers — a woken reserver rechecks the occupancy counter itself.
	// The field stays for readers of the counter set.
	Handoffs int64
}

// Window is the admission window.
//
// The accounting protocol: every task entering the window (becoming
// dependency-ready) is reported exactly once by Entered, and every counted
// task leaving the window (starting execution) is reported exactly once by
// Started. Submitters call Reserve before their task's Entered; dependency
// cascades call Entered alone and may overdraw the bound — only submitters
// block.
//
// The bound on submitted entries is check-then-enter: Reserve admits while
// Open() < Limit(), so s submitters that pass the check on the same free
// slot can push occupancy to Limit() + s - 1 before their tasks start.
type Window struct {
	limit   int64
	open    atomic.Int64
	mu      sync.Mutex
	cond    *sync.Cond
	parks   atomic.Int64
	waiting atomic.Int64
}

// New creates a window over limit slots.
func New(limit int) *Window {
	if limit <= 0 {
		panic("throttle: limit must be positive")
	}
	w := &Window{limit: int64(limit)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Reserve blocks until the window has room for one more ready task,
// yielding worker through y (if non-nil) while parked. It returns the
// worker the caller now holds (reacquired if it parked). The caller then
// reports the task's window entry with Entered if the task is ready.
func (w *Window) Reserve(worker int, y Yielder) int {
	if w.open.Load() < w.limit {
		return worker
	}
	w.parks.Add(1)
	if y != nil {
		y.Yield(worker)
	}
	w.mu.Lock()
	w.waiting.Add(1)
	for w.open.Load() >= w.limit {
		w.cond.Wait()
	}
	w.waiting.Add(-1)
	w.mu.Unlock()
	if y != nil {
		worker = y.Acquire()
	}
	return worker
}

// Entered records n tasks entering the window. It never blocks and may
// overdraw the bound.
func (w *Window) Entered(n int64) { w.open.Add(n) }

// Started records one counted task leaving the window (it began
// executing) and wakes the parked reservers.
func (w *Window) Started() {
	w.open.Add(-1)
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Open returns the current window occupancy (ready, unstarted tasks).
func (w *Window) Open() int64 { return w.open.Load() }

// Limit returns the configured window bound.
func (w *Window) Limit() int { return int(w.limit) }

// Credits returns the number of window slots currently free to admit
// work: Limit() - Open(), negative while cascade admissions overdraw the
// bound. At quiescence it equals Limit() — the runtime's leak checks
// assert this.
func (w *Window) Credits() int64 { return w.limit - w.open.Load() }

// Waiters returns the number of reservers currently parked in Reserve.
// Monitors use it with Credits: a parked reserver and a free credit
// coexisting past a transient wake-up window is a lost wakeup.
func (w *Window) Waiters() int64 { return w.waiting.Load() }

// Stats returns a snapshot of the diagnostic counters.
func (w *Window) Stats() Stats { return Stats{Parks: w.parks.Load()} }
