package harness

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sched"
)

// Locality kernel behind depbench's -mode locality table and the
// perftrack locality entries: a deliberately imbalanced drain workload —
// every group's work starts piled on one shard, so every other worker
// can only make progress by stealing — driven through the stealing pool
// under a tree topology and under the flat reference order. The
// interesting outputs are not ops/s but *where* the steals went: the
// steal-distance histogram and the cross-group steal rate, which the
// nearest-first victim walk must push toward the sibling level while the
// flat order scatters them across the tree.

// LocalityResult extends the counters with the steal-distance
// measurements of one run.
type LocalityResult struct {
	BenchCounters
	Steals      int64                  // total stolen items
	StealLevels [sched.NumLevels]int64 // steal-distance histogram (sibling/domain/remote)
	CrossRate   float64                // fraction of steals that left the thief's group
}

// LocalityProcs is the GOMAXPROCS a w-worker locality measurement runs
// at: w, but never more than the host's CPU count. With more Ps than CPUs
// the kernel time-slices the Ps' threads, and a worker frozen mid-leaf for
// a whole time slice lets the other group drain its pile first and spend
// the rest of the run stealing across groups, so the cross-group rate
// would measure thread preemption, not the victim walk. The w workers
// still run as w goroutines; on a small host they interleave through the
// Go scheduler at every leaf's Gosched.
func LocalityProcs(w int) int { return min(w, runtime.NumCPU()) }

// LocalityBench drives ~ops spinning leaf items through a stealing pool
// built over topo with w workers. The driver acquires every token — which
// makes an owner-push onto any shard legal — and piles each group's equal
// share of the leaves onto the group's first worker's deque, then yields
// the pile hosts' tokens first (each host starts draining its own pile
// before the thieves wake) and measures the drain. Every non-host worker
// can only progress by stealing, and every group holds a pile, so a
// nearest-first thief can always resolve at the sibling level while a
// flat thief picks victims at any distance. The piles are built by the
// driver rather than by in-pool generator tasks because pool items are
// stealable: on an oversubscribed host a generator task would migrate to
// another group before its host worker ever ran, building its pile at the
// wrong distance and randomizing the histogram. spin is the leaf body's
// busy-work (it keeps the drain long enough for every worker to
// participate).
func LocalityBench(topo sched.Topology, w, ops, spin int) LocalityResult {
	g := topo.GroupSize
	if g <= 0 {
		g = 4
	}
	if g > w {
		g = w
	}
	ngroups := (w + g - 1) / g
	per := ops / ngroups

	var leafWG sync.WaitGroup
	leafWG.Add(per * ngroups)

	var q *sched.Stealing[int]
	q = sched.NewStealingTopo(w, topo, func(_, worker int) {
		for {
			waitSpin(spin)
			// Yield between leaves so the worker goroutines interleave
			// even when the host has fewer cores than workers. Without
			// this a worker that keeps its scheduling quantum drains its
			// own group's pile and then walks straight through the
			// domain and remote piles before anyone else runs — the
			// histogram would measure preemption luck, not victim
			// choice. With the yield the piles drain in near-lockstep
			// and every group's thieves stay in their own pile.
			runtime.Gosched()
			leafWG.Done()
			if _, ok := q.Finish(worker); !ok {
				return
			}
		}
	})

	for i := 0; i < w; i++ {
		q.Acquire()
	}
	for grp := 0; grp < ngroups; grp++ {
		for i := 0; i < per; i++ {
			q.Submit(0, grp*g)
		}
	}
	wait0 := mutexWait()
	cyc0 := pkgLockCycles("repro/internal/sched.")
	m0, p0 := memCounters()
	start := time.Now()
	for grp := 0; grp < ngroups; grp++ {
		q.Yield(grp * g)
	}
	for v := 0; v < w; v++ {
		if v%g != 0 || v/g >= ngroups {
			q.Yield(v)
		}
	}
	leafWG.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for !q.Idle() && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	wall := time.Since(start)
	m1, p1 := memCounters()
	st := q.Stats()
	out := LocalityResult{
		BenchCounters: BenchCounters{
			Ops: per * ngroups, Wall: wall,
			MutexWait:  mutexWait() - wait0,
			LockCycles: pkgLockCycles("repro/internal/sched.") - cyc0,
			Allocs:     m1 - m0, GCPause: p1 - p0,
		},
		Steals:      st.Steals,
		StealLevels: st.StealLevels,
	}
	if st.Steals > 0 {
		out.CrossRate = float64(st.CrossGroup()) / float64(st.Steals)
	}
	return out
}

// LocalityTopologies are the two victim orders the locality table
// compares, over the synthetic two-domain CI tree (groups of two siblings
// split across two domains — all three steal-distance levels are
// populated from w=8, and the tree is non-trivial from w=4). Flat first:
// it is the reference row.
var LocalityTopologies = []struct {
	Name string
	Topo sched.Topology
}{
	{"flat", sched.Topology{Flat: true, GroupSize: 2, Domains: 2}},
	{"tree", sched.Topology{GroupSize: 2, Domains: 2}},
}
