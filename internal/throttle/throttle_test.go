package throttle

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randtest"
)

// TestReservedBound checks the hard bound on reserved-only admission: with
// every entry preceded by a Reserve, occupancy never exceeds the limit plus
// the check-then-enter overshoot of one slot per concurrent reserver. A
// goroutine starts its previous entry before reserving the next one — in
// the real runtime the two sides run on different goroutines (submitters
// vs workers), and ready tasks always drain — so with a window smaller
// than the submitter count the slow path parks and wakes throughout.
func TestReservedBound(t *testing.T) {
	const submitters = 4
	perG := 2000
	if testing.Short() {
		perG = 400
	}
	for _, limit := range []int{3, 8} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			w := New(limit)
			bound := int64(limit) + submitters - 1 // one check-then-enter overshoot per reserver
			var maxOpen atomic.Int64
			var wg sync.WaitGroup
			barrier := make(chan struct{})
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-barrier
					pending := 0
					for i := 0; i < perG; i++ {
						if pending > 0 {
							w.Started()
							pending--
						}
						w.Reserve(g, nil)
						w.Entered(1)
						pending++
						if o := w.Open(); o > maxOpen.Load() {
							maxOpen.Store(o)
						}
					}
					for ; pending > 0; pending-- {
						w.Started()
					}
				}(g)
			}
			close(barrier)
			wg.Wait()
			if got := maxOpen.Load(); got > bound {
				t.Errorf("occupancy reached %d, want <= %d", got, bound)
			}
			if got := w.Open(); got != 0 {
				t.Errorf("Open() = %d at quiescence, want 0", got)
			}
		})
	}
}

// TestRandomScheduleInvariants drives the window over seeded randomized
// submit/deferred-submit/cascade schedules, mirroring the runtime's
// structure: submitter goroutines reserve and enter (and may park), while
// dedicated drainer goroutines start every window occupant (ready tasks
// always drain, which is what makes the throttle deadlock-free). For each
// run it asserts completion (no deadlock, no lost wakeup), as many starts
// as entries, and the quiescent window: no occupancy, every credit free,
// and no reserver left parked.
func TestRandomScheduleInvariants(t *testing.T) {
	const submitters = 4
	run := func(t *testing.T, limit int, seed uint64, perG int) {
		w := New(limit)
		var entered, started atomic.Int64
		var subs sync.WaitGroup
		for g := 0; g < submitters; g++ {
			subs.Add(1)
			go func(g int) {
				defer subs.Done()
				rng := rand.New(rand.NewPCG(seed, uint64(g)))
				for i := 0; i < perG; i++ {
					switch rng.IntN(8) {
					case 0, 1, 2, 3, 4: // throttled submit of a ready child
						w.Reserve(g, nil)
						w.Entered(1)
						entered.Add(1)
					case 5: // throttled submit of a deferred child: no entry
						w.Reserve(g, nil)
					default: // dependency cascade readies a burst (may overdraw)
						n := int64(1 + rng.IntN(3))
						w.Entered(n)
						entered.Add(n)
					}
				}
			}(g)
		}
		// Drainers play the workers: start whatever occupies the window.
		stop := make(chan struct{})
		var drainers sync.WaitGroup
		for d := 0; d < 2; d++ {
			drainers.Add(1)
			go func() {
				defer drainers.Done()
				for {
					if s := started.Load(); s < entered.Load() {
						if started.CompareAndSwap(s, s+1) {
							w.Started()
						}
						continue
					}
					select {
					case <-stop:
						if started.Load() == entered.Load() {
							return
						}
					default:
					}
					runtime.Gosched()
				}
			}()
		}
		done := make(chan struct{})
		go func() { subs.Wait(); close(stop); drainers.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("limit=%d seed=%d: window deadlocked", limit, seed)
		}
		if e, s := entered.Load(), started.Load(); e != s {
			t.Errorf("limit=%d seed=%d: %d entries vs %d starts", limit, seed, e, s)
		}
		if got := w.Open(); got != 0 {
			t.Errorf("limit=%d seed=%d: Open() = %d at quiescence, want 0", limit, seed, got)
		}
		if got := w.Credits(); got != int64(w.Limit()) {
			t.Errorf("limit=%d seed=%d: Credits() = %d at quiescence, want %d", limit, seed, got, w.Limit())
		}
		if got := w.Waiters(); got != 0 {
			t.Errorf("limit=%d seed=%d: %d waiters at quiescence", limit, seed, got)
		}
	}
	perG := 3000
	if testing.Short() {
		perG = 600
	}
	for _, limit := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			for _, s := range randtest.SeedRange(t, 0, 4) {
				run(t, limit, uint64(s), perG)
			}
		})
	}
}

// TestParkAndWake forces the slow path: once `limit` entries fill the
// window, the next reserver must park and a Started must wake it.
func TestParkAndWake(t *testing.T) {
	for _, limit := range []int{1, 4} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			w := New(limit)
			for i := 0; i < limit; i++ {
				w.Reserve(0, nil)
				w.Entered(1)
			}
			if st := w.Stats(); st.Parks != 0 {
				t.Fatalf("filling the window parked %d reservers, want 0", st.Parks)
			}
			got := make(chan struct{})
			go func() {
				w.Reserve(1, nil)
				w.Entered(1)
				close(got)
			}()
			// The reserver must park: the window is full.
			waitParked(t, w)
			w.Started()
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("Started did not wake the parked reserver")
			}
			for i := 0; i < limit; i++ {
				w.Started()
			}
			if st := w.Stats(); st.Parks != 1 || st.Handoffs != 0 {
				t.Errorf("Stats() = %+v, want exactly one park and no hand-offs", st)
			}
			if got := w.Open(); got != 0 {
				t.Errorf("Open() = %d, want 0", got)
			}
		})
	}
}

// TestOverdrawBlocksReserve pins the bound under cascade overdraw: while
// unreserved (cascade) entries hold occupancy at or above the limit, a
// start that leaves occupancy at the limit must not admit a parked
// reserver; only the start that frees a real slot may.
func TestOverdrawBlocksReserve(t *testing.T) {
	w := New(2)
	// A dependency cascade readies 4 unreserved tasks: open=4, credits=-2.
	w.Entered(4)
	if got := w.Credits(); got != -2 {
		t.Fatalf("Credits() = %d after overdraw, want -2", got)
	}
	admitted := make(chan struct{})
	go func() {
		w.Reserve(0, nil)
		w.Entered(1)
		close(admitted)
	}()
	waitParked(t, w)
	// Two starts bring occupancy down to the limit (4 → 2); neither may
	// admit the parked reserver.
	w.Started()
	w.Started()
	select {
	case <-admitted:
		t.Fatal("reserver admitted while occupancy was at the bound")
	case <-time.After(50 * time.Millisecond):
	}
	// The next start frees a real slot.
	w.Started()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("reserver not admitted after occupancy fell below the bound")
	}
	// Retire the last cascade entry and the reserver's own entry.
	w.Started()
	w.Started()
	if got := w.Open(); got != 0 {
		t.Errorf("Open() = %d, want 0", got)
	}
	if got := w.Credits(); got != int64(w.Limit()) {
		t.Errorf("Credits() = %d, want %d", got, w.Limit())
	}
}

// TestParkedReserversAllWake parks a crowd of reservers behind a full
// window of one and releases them with a single start. Each resumed
// reserver's task starts in turn, so the wake-up chain must run through
// every parked reserver without a lost wakeup, and the window must end
// quiescent with no reserver left parked.
func TestParkedReserversAllWake(t *testing.T) {
	const parked = 8
	w := New(1)
	// Take the single slot so every later reserver parks.
	w.Reserve(0, nil)
	w.Entered(1)
	var done sync.WaitGroup
	for i := 0; i < parked; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			w.Reserve(i, nil)
			w.Entered(1)
			w.Started()
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Waiters() < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d reservers parked", w.Waiters(), parked)
		}
		runtime.Gosched()
	}
	w.Started()
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatalf("wake-up chain stalled: %d reservers still parked", w.Waiters())
	}
	st := w.Stats()
	if st.Parks != parked || st.Handoffs != 0 {
		t.Errorf("Stats() = %+v, want %d parks and no hand-offs", st, parked)
	}
	if got := w.Open(); got != 0 {
		t.Errorf("Open() = %d, want 0", got)
	}
	if got := w.Waiters(); got != 0 {
		t.Errorf("Waiters() = %d, want 0", got)
	}
}

// waitParked waits until one reserver is parked in w.
func waitParked(t *testing.T, w *Window) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.Waiters() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no reserver parked (Waiters() = %d)", w.Waiters())
		}
		runtime.Gosched()
	}
}

// recordingYielder counts the token round-trips of parked reservers.
type recordingYielder struct {
	yields, acquires atomic.Int64
}

func (y *recordingYielder) Yield(worker int) { y.yields.Add(1) }
func (y *recordingYielder) Acquire() int     { y.acquires.Add(1); return 0 }

// TestYielderRoundTrip checks a parked reserver yields its worker token
// exactly once and reacquires exactly once, and that fast-path reserves
// perform no round-trip at all.
func TestYielderRoundTrip(t *testing.T) {
	for _, limit := range []int{1, 4} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			w := New(limit)
			y := &recordingYielder{}
			for i := 0; i < limit; i++ {
				w.Reserve(0, y)
				w.Entered(1)
			}
			if y.yields.Load() != 0 || y.acquires.Load() != 0 {
				t.Fatal("fast-path Reserve performed a token round-trip")
			}
			done := make(chan struct{})
			go func() {
				w.Reserve(1, y)
				close(done)
			}()
			waitParked(t, w)
			w.Started()
			<-done
			if y.yields.Load() != 1 || y.acquires.Load() != 1 {
				t.Errorf("parked Reserve: %d yields, %d acquires; want 1 and 1",
					y.yields.Load(), y.acquires.Load())
			}
		})
	}
}
