package deps

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mempool"
	"repro/internal/regions"
)

// nestedWeakShape sizes the engine-level analogue of the nested-weak
// benchmark program: outers weakinout outer nodes over [0,span), each
// splitting the range into leaves inout leaf tasks at seeded cuts.
type nestedWeakShape struct {
	outers, leaves int
	span           int64
}

// nestedWeakCuts draws leaves+1 seeded cut points covering [0,span): leaf
// sizes are uniform in [avg/2, 3·avg/2] and scaled to cover the range.
func nestedWeakCuts(rng *rand.Rand, sh nestedWeakShape) []int64 {
	avg := sh.span / int64(sh.leaves)
	sizes := make([]int64, sh.leaves)
	var total int64
	for i := range sizes {
		sizes[i] = avg/2 + rng.Int63n(avg+1)
		total += sizes[i]
	}
	cuts := make([]int64, sh.leaves+1)
	var acc int64
	for i, sz := range sizes {
		acc += sz
		cuts[i+1] = acc * sh.span / total
	}
	return cuts
}

// runNestedWeak drives one nested-weak program through e, the way the
// runtime would: each outer's body submits its leaves (inout over one cut
// range each), releases every leaf's range right after submitting it, and
// ends (weakwait). Ready leaves complete in seeded random order,
// interleaved with the outer bodies; an outer completes once its body
// ended and its last leaf completed. check runs after every
// engine call with the program's root node.
func runNestedWeak(e Engine, sh nestedWeakShape, seed int64, check func(root *Node)) {
	rng := rand.New(rand.NewSource(seed))
	root := e.NewNode(nil, "root", nil)
	e.Register(root, nil)
	all := []regions.Interval{regions.Iv(0, sh.span)}
	outerOf := map[*Node]*Node{}
	live := map[*Node]int{} // outer → leaves not yet complete
	bodyDone := map[*Node]bool{}
	var ready []*Node
	completeOuter := func(outer *Node) {
		ready = append(ready, e.Complete(outer)...)
		check(root)
	}
	completeOne := func() {
		i := rng.Intn(len(ready))
		leaf := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		outer := outerOf[leaf]
		ready = append(ready, e.Complete(leaf)...)
		check(root)
		if live[outer]--; live[outer] == 0 && bodyDone[outer] {
			completeOuter(outer)
		}
	}
	for c := 0; c < sh.outers; c++ {
		outer := e.NewNode(root, fmt.Sprintf("call%d", c), nil)
		if !e.Register(outer, []Spec{{Data: 0, Type: InOut, Weak: true, Ivs: all}}) {
			panic("weak outer node not ready at registration")
		}
		check(root)
		cuts := nestedWeakCuts(rng, sh)
		for j := 0; j+1 < len(cuts); j++ {
			r := []regions.Interval{regions.Iv(cuts[j], cuts[j+1])}
			leaf := e.NewNode(outer, fmt.Sprintf("call%d-leaf%d", c, j), nil)
			outerOf[leaf] = outer
			live[outer]++
			if e.Register(leaf, []Spec{{Data: 0, Type: InOut, Ivs: r}}) {
				ready = append(ready, leaf)
			}
			check(root)
			ready = append(ready, e.ReleaseRegions(outer, []Spec{{Data: 0, Type: InOut, Weak: true, Ivs: r}})...)
			check(root)
			for len(ready) > 0 && rng.Intn(4) == 0 {
				completeOne()
			}
		}
		bodyDone[outer] = true
		ready = append(ready, e.BodyDone(outer)...)
		check(root)
		if live[outer] == 0 {
			completeOuter(outer)
		}
	}
	for len(ready) > 0 {
		completeOne()
	}
	e.Complete(root)
}

// TestNestedWeakDomainStaysCompact pins live-cell coalescing on the
// paper's model: the root domain holds the outer nodes' whole-range weak
// accesses, which release piece by piece along every call's own leaf cuts.
// Merging only drained cells keeps one root cell per distinct cut of every
// live outer: about five cells per leaf of one call at peak here (338 for
// seed 1). Merging equal live cells keeps only the cells whose live counts
// or writer histories actually differ, which stays within one and a half
// cells per leaf.
func TestNestedWeakDomainStaysCompact(t *testing.T) {
	sh := nestedWeakShape{outers: 8, leaves: 64, span: 1 << 13}
	bound := 3 * sh.leaves / 2
	for _, mem := range []mempool.Kind{mempool.KindReference, mempool.KindPooled} {
		t.Run(mem.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				e := NewEngineMem(testEngineKind, nil, mem)
				most := 0
				runNestedWeak(e, sh, seed, func(root *Node) {
					most = max(most, countDomainEntries(root))
				})
				t.Logf("seed %d: root domain peaked at %d cells", seed, most)
				if most > bound {
					t.Errorf("seed %d: root domain peaked at %d cells, want at most %d", seed, most, bound)
				}
				if n := e.LiveFragments(); n != 0 {
					t.Errorf("seed %d: %d fragments unreleased after drain", seed, n)
				}
				if ms, pooled := e.MemStats(); pooled && ms.Outstanding() != 0 {
					t.Errorf("seed %d: %d pool objects outstanding after drain: %+v", seed, ms.Outstanding(), ms)
				}
			}
		})
	}
}
