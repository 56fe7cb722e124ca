package throttle

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Throttle-window contention: w submitter loops share one window, each
// cycling reserve → enter → start — the throttled-submission analogue of
// the dependency engine's disjoint chains and the scheduler's submit/finish
// chains (every cycle crosses the admission window; the submitters share
// no other state). Every Started broadcasts under the window's mutex, so
// the cycles serialize on it. GOMAXPROCS is raised to the worker count so
// the contention is real even on small hosts.

// runWindowCycles drives w submitter loops of ops/w reserve+enter+start
// cycles each through a fresh window of the given bound.
func runWindowCycles(w, ops, limit int) {
	win := New(limit)
	perW := ops / w
	if perW < 1 {
		perW = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				win.Reserve(g, nil)
				win.Entered(1)
				win.Started()
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkThrottleContentionMatrix is the throttle contention table at
// w = 1 (uncontended overhead), 4, and 8 (lock contention), over a tight
// window (equal to the worker count, the bound actively pushing back) and
// a wide one (the fast path alone). The precise contention measurement is
// cmd/depbench's throttle table.
func BenchmarkThrottleContentionMatrix(b *testing.B) {
	for _, w := range []int{1, 4, 8} {
		for _, window := range []int{w, 64 * w} {
			b.Run(fmt.Sprintf("w=%d/window=%d", w, window), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(0)
				if w > prev {
					runtime.GOMAXPROCS(w)
					defer runtime.GOMAXPROCS(prev)
				}
				b.ReportAllocs()
				runWindowCycles(w, b.N, window)
			})
		}
	}
}
