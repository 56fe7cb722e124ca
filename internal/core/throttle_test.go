package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/deps"
	"repro/internal/sched"
	"repro/internal/throttle"
)

// TestThrottleNoDeadlockWithWeakNesting is a regression test: the throttle
// window must count only dependency-ready tasks. If it counted every
// instantiated task, this program could deadlock — a child of the second
// weak outer task waits on fragments that release only when the first
// outer task's body finishes, while that body is blocked in the throttle
// because the waiting child fills the window.
func TestThrottleNoDeadlockWithWeakNesting(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for iter := 0; iter < 20; iter++ {
				rt := New(Config{Workers: workers, ThrottleOpenTasks: 1})
				d := rt.NewData("x", 100, 8)
				var ran atomic.Int64
				outer := func(lbl string) TaskSpec {
					return TaskSpec{
						Label:    lbl,
						WeakWait: true,
						Deps:     []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{{Lo: 0, Hi: 100}}}},
						Body: func(tc *TaskContext) {
							for i := int64(0); i < 4; i++ {
								tc.Submit(TaskSpec{
									Label: lbl + "-leaf",
									Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: i * 25, Hi: (i + 1) * 25}}}},
									Body:  func(*TaskContext) { ran.Add(1) },
								})
							}
						},
					}
				}
				rt.Run(func(tc *TaskContext) {
					tc.Submit(outer("t1"))
					tc.Submit(outer("t2"))
				})
				if got := ran.Load(); got != 8 {
					t.Fatalf("iter %d: ran %d leaves, want 8", iter, got)
				}
			}
		})
	}
}

// TestThrottleWindowBoundsReadyBacklog checks the throttle actually bounds
// the ready backlog on every ready pool: with a window of 4 and slow
// chain-free tasks, the scheduler queue length can never exceed the window.
func TestThrottleWindowBoundsReadyBacklog(t *testing.T) {
	const window = 4
	pools := []sched.PoolKind{sched.PoolCentral, sched.PoolShardedCentral, sched.PoolStealing, sched.PoolLockedStealing}
	for _, pool := range pools {
		t.Run(pool.String(), func(t *testing.T) {
			rt := New(Config{Workers: 2, ThrottleOpenTasks: window, ReadyPool: pool})
			var maxOpen atomic.Int64
			rt.Run(func(tc *TaskContext) {
				for i := 0; i < 200; i++ {
					tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {
						if o := rt.open.Load(); o > maxOpen.Load() {
							maxOpen.Store(o)
						}
					}})
				}
			})
			// The submitter may overshoot by one (check-then-submit), and
			// the two running tasks are already out of the window.
			if maxOpen.Load() > window+1 {
				t.Fatalf("ready backlog reached %d, want <= %d", maxOpen.Load(), window+1)
			}
		})
	}
}

// TestThrottleWindowConstruction checks the window plumbing: a throttled
// real-mode runtime builds a window of the configured bound, virtual mode
// builds none, and an unthrottled runtime builds none.
func TestThrottleWindowConstruction(t *testing.T) {
	if rt := New(Config{Workers: 2, ThrottleOpenTasks: 8}); rt.thr == nil {
		t.Error("throttled real-mode runtime has no window")
	} else if rt.thr.Limit() != 8 {
		t.Errorf("window limit = %d, want 8", rt.thr.Limit())
	}
	if rt := New(Config{Workers: 2, ThrottleOpenTasks: 8, Virtual: true}); rt.thr != nil {
		t.Error("virtual-mode runtime built a throttle window")
	}
	if rt := New(Config{Workers: 2}); rt.thr != nil {
		t.Error("unthrottled runtime built a throttle window")
	}
}

// TestThrottleStatsExposed checks the runtime surfaces the window's
// diagnostic counters. With one worker and a window of one, the root body
// holds the only worker token, so its first child stays in the window and
// the second submit must park (yielding the token to run the first).
func TestThrottleStatsExposed(t *testing.T) {
	rt := New(Config{Workers: 1, ThrottleOpenTasks: 1})
	rt.Run(func(tc *TaskContext) {
		for i := 0; i < 500; i++ {
			tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {}})
		}
	})
	if st := rt.ThrottleStats(); st.Parks == 0 {
		t.Errorf("full window reported no parks: %+v", st)
	}
	if st := New(Config{Workers: 2}).ThrottleStats(); st != (throttle.Stats{}) {
		t.Errorf("unthrottled runtime reported non-zero throttle stats: %+v", st)
	}
}

// TestThrottleDrainCheckReportsLeaks checks the Debug drain check catches
// both directions of a throttle accounting slip: an entry whose start was
// dropped (a credit never returned) and a start counted twice.
func TestThrottleDrainCheckReportsLeaks(t *testing.T) {
	rt := New(Config{Workers: 2, ThrottleOpenTasks: 4, Debug: true})
	if err := rt.RunChecked(func(tc *TaskContext) {
		tc.Submit(TaskSpec{Label: "t", Body: func(*TaskContext) {}})
	}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	rt.thr.Entered(1)
	if err := rt.runErr(); err == nil || !strings.Contains(err.Error(), "1 open tasks, 3 of 4 credits free") {
		t.Errorf("dropped start: runErr = %v, want the throttle leak reported", err)
	}
	rt.thr.Started()
	rt.thr.Started()
	if err := rt.runErr(); err == nil || !strings.Contains(err.Error(), "-1 open tasks, 5 of 4 credits free") {
		t.Errorf("double start: runErr = %v, want the throttle leak reported", err)
	}
}

// TestThrottleStackStress combines the throttle window with the sharded
// subsystems — the per-data-object dependency engine and the work-stealing
// ready pool — under a tight window with nested weak tasks, dependency
// chains (deferred children that enter the window only through a
// completion cascade), and in-body taskwaits (worker-identity churn across
// the throttle's token round-trip). Run with -race this is the integration
// stress for the throttled runtime stack.
func TestThrottleStackStress(t *testing.T) {
	iters, outers := 30, 8
	if testing.Short() {
		iters, outers = 6, 6
	}
	for _, window := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			for iter := 0; iter < iters; iter++ {
				rt := New(Config{
					Workers:           4,
					ThrottleOpenTasks: window,
					DepEngine:         deps.EngineSharded,
					ReadyPool:         sched.PoolStealing,
					Debug:             true,
				})
				d := rt.NewData("x", int64(outers*64), 8)
				var ran atomic.Int64
				err := rt.RunChecked(func(tc *TaskContext) {
					for o := 0; o < outers; o++ {
						lo := int64(o * 64)
						tc.Submit(TaskSpec{
							Label:    "outer",
							WeakWait: true,
							Deps:     []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{{Lo: lo, Hi: lo + 64}}}},
							Body: func(tc *TaskContext) {
								// A serial chain: every leaf after the first is
								// deferred at submit (no window entry), then
								// readied by a completion cascade (overdraw path).
								for i := int64(0); i < 6; i++ {
									tc.Submit(TaskSpec{
										Label: "leaf",
										Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{{Lo: lo, Hi: lo + 64}}}},
										Body:  func(*TaskContext) { ran.Add(1) },
									})
								}
								if tc.Depth()%2 == 1 {
									tc.Taskwait()
								}
							},
						})
					}
				})
				if err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				if got, want := ran.Load(), int64(outers*6); got != want {
					t.Fatalf("iter %d: ran %d leaves, want %d", iter, got, want)
				}
				if st := rt.ThrottleStats(); window == 1 && st.Parks == 0 && iter == 0 {
					t.Logf("window=1 run recorded no parks (timing-dependent)")
				}
			}
		})
	}
}
