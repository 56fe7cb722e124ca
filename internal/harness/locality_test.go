package harness

import (
	"runtime"
	"testing"

	"repro/internal/sched"
)

// TestLocalityCrossGroupDrop is the acceptance gate of the topology work
// (run by `make topo-smoke`): over the synthetic two-domain tree, the
// nearest-first victim walk must drive the cross-group steal rate strictly
// below the flat reference at w=4 and w=8, and most of its steals must
// resolve at the sibling level. The margins are wide — tree cross rates
// sit near zero and flat ones near the cross-group victim fraction — so
// host noise cannot flip the comparison.
//
// GOMAXPROCS is raised toward w but never above the host's CPU count
// (LocalityProcs).
func TestLocalityCrossGroupDrop(t *testing.T) {
	const ops, spin = 40_000, 400
	for _, w := range []int{4, 8} {
		prev := runtime.GOMAXPROCS(0)
		if procs := LocalityProcs(w); procs > prev {
			runtime.GOMAXPROCS(procs)
		}
		flat := LocalityBench(LocalityTopologies[0].Topo, w, ops, spin)
		tree := LocalityBench(LocalityTopologies[1].Topo, w, ops, spin)
		runtime.GOMAXPROCS(prev)
		if flat.Ops != tree.Ops {
			t.Fatalf("w=%d: flat ran %d leaves, tree %d; the workloads must match", w, flat.Ops, tree.Ops)
		}
		if flat.Steals == 0 || tree.Steals == 0 {
			t.Fatalf("w=%d: no steals (flat=%d tree=%d); the imbalance generator is broken", w, flat.Steals, tree.Steals)
		}
		if tree.CrossRate >= flat.CrossRate {
			t.Errorf("w=%d: tree cross-group steal rate %.1f%% not below flat %.1f%% (tree levels %v, flat levels %v)",
				w, tree.CrossRate*100, flat.CrossRate*100, tree.StealLevels, flat.StealLevels)
		}
		if sib := tree.StealLevels[sched.LevelSibling]; 2*sib < tree.Steals {
			t.Errorf("w=%d: only %d of %d tree steals resolved at the sibling level; nearest-first walk not engaging",
				w, sib, tree.Steals)
		}
	}
}
