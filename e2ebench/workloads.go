package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	nanos "repro"
)

// workloadNames lists the workloads in the order the documentation
// presents them.
var workloadNames = []string{"nested-weak", "gs-graph", "spawn-chain", "ws-axpy"}

// newWorkload builds a named workload for seed. tiny shrinks every size so
// a whole pass takes milliseconds (the self-tests use it).
func newWorkload(name string, seed uint64, tiny bool) (workload, error) {
	switch name {
	case "nested-weak":
		w := &nestedWeak{seed: seed, n: 1 << 16, calls: 8, leaf: 512, progs: 8}
		if tiny {
			w.n, w.calls, w.leaf, w.progs = 1<<10, 3, 64, 2
		}
		return w, nil
	case "gs-graph":
		w := &gsGraph{seed: seed, n: 512, ts: 32}
		if tiny {
			w.n, w.ts = 64, 16
		}
		return w, nil
	case "spawn-chain":
		w := &spawnChain{seed: seed, batch: 2048, chains: 16, minLen: 200, maxLen: 600, progs: 8}
		if tiny {
			w.batch, w.chains, w.minLen, w.maxLen, w.progs = 64, 4, 10, 30, 2
		}
		return w, nil
	case "ws-axpy":
		w := &wsAxpy{seed: seed, n: 1 << 17, grain: 128, calls: 128}
		if tiny {
			w.n, w.grain, w.calls = 1<<12, 128, 3
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// baseConfig is the shipped default configuration with the worker count
// set and the end-of-run Debug checks on; no variant selector is named,
// so the benchmark always measures the variants that ship.
func baseConfig(workers int) nanos.Config {
	return nanos.Config{Workers: workers, Debug: true}
}

// mix64 is the splitmix64 finalizer: the step generator of per-step
// shapes and the spawn-chain kernel.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func randVec(rng *rand.Rand, n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// axpy is the multiple-AXPY kernel, shared by the tasks and the reference
// so both round identically.
func axpy(y, x []float64, a float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

// nestedWeak is the paper's model (§V–VII): every step is one whole
// program of calls to multiple-AXPY; each call is an outer weakinout +
// weakwait task that submits leaf tasks over seeded boundaries and
// releases each leaf's range, so consecutive calls overlap partially.
type nestedWeak struct {
	seed          uint64
	n, leaf       int64
	calls, progs  int
	x, y0, y, ref []float64
	programs      []nwProgram
	xd, yd        nanos.DataID
	maxTask       int
}

type nwProgram struct {
	cuts  [][]int64 // per call: leaf boundaries 0 = c[0] < ... < c[last] = n
	alpha []float64 // per call
	first []int32   // per call: task index of the outer task; leaves follow
	preds [][]int32 // per task index: overlapping leaves of the previous call
}

func (w *nestedWeak) config(workers int) nanos.Config { return baseConfig(workers) }
func (w *nestedWeak) programPerStep() bool            { return true }
func (w *nestedWeak) warmups() int                    { return 2 }
func (w *nestedWeak) spansPerStep() int               { return 3*w.maxTask + 8 }

func (w *nestedWeak) prepare() {
	rng := rand.New(rand.NewPCG(w.seed, 1))
	w.x, w.y0 = randVec(rng, w.n), randVec(rng, w.n)
	w.y, w.ref = make([]float64, w.n), make([]float64, w.n)
	w.programs = make([]nwProgram, w.progs)
	for p := range w.programs {
		pr := &w.programs[p]
		var task int32
		for c := 0; c < w.calls; c++ {
			cuts := w.cuts(rng)
			pr.cuts = append(pr.cuts, cuts)
			pr.alpha = append(pr.alpha, rng.Float64()*2-1)
			pr.first = append(pr.first, task)
			pr.preds = append(pr.preds, nil) // the outer task: weak entries only
			for j := 0; j+1 < len(cuts); j++ {
				var ps []int32
				if c > 0 {
					prev := pr.cuts[c-1]
					for q := 0; q+1 < len(prev); q++ {
						if prev[q] < cuts[j+1] && cuts[j] < prev[q+1] {
							ps = append(ps, pr.first[c-1]+1+int32(q))
						}
					}
				}
				pr.preds = append(pr.preds, ps)
			}
			task += int32(len(cuts))
		}
		w.maxTask = max(w.maxTask, int(task))
	}
}

// cuts draws one call's leaf boundaries: n/leaf leaves (the same count
// for every seed, so every step does the same amount of work) whose sizes
// are uniform in [leaf/2, 3·leaf/2], scaled to cover [0, n) exactly.
func (w *nestedWeak) cuts(rng *rand.Rand) []int64 {
	leaves := int(w.n / w.leaf)
	sizes := make([]int64, leaves)
	var total int64
	for i := range sizes {
		sizes[i] = w.leaf/2 + rng.Int64N(w.leaf+1)
		total += sizes[i]
	}
	cuts := make([]int64, leaves+1)
	var acc int64
	for i, sz := range sizes {
		acc += sz
		cuts[i+1] = acc * w.n / total
	}
	return cuts
}

func (w *nestedWeak) register(rt *nanos.Runtime) {
	w.xd = rt.NewData("x", w.n, 8)
	w.yd = rt.NewData("y", w.n, 8)
	copy(w.y, w.y0)
}

func (w *nestedWeak) step(b *bench, tc *nanos.TaskContext, sp int32, k int) {
	pr := &w.programs[k%len(w.programs)]
	step := int32(k)
	all := nanos.Iv(0, w.n)
	for c := range pr.cuts {
		cuts, a, first := pr.cuts[c], pr.alpha[c], pr.first[c]
		b.submitNested(tc, sp, step, first, nanos.TaskSpec{
			Label:    "axpy-call",
			WeakWait: true,
			Deps:     []nanos.Dep{nanos.DWeakIn(w.xd, all), nanos.DWeakInOut(w.yd, all)},
		}, func(tc *nanos.TaskContext, sp int32) {
			for j := 0; j+1 < len(cuts); j++ {
				lo, hi := cuts[j], cuts[j+1]
				r := nanos.Iv(lo, hi)
				b.submit(tc, sp, step, first+1+int32(j), nanos.TaskSpec{
					Label: "axpy-leaf",
					Deps:  []nanos.Dep{nanos.DIn(w.xd, r), nanos.DInOut(w.yd, r)},
					Body:  func(*nanos.TaskContext) { axpy(w.y[lo:hi], w.x[lo:hi], a) },
				})
				b.release(tc, sp, step, nanos.DWeakInOut(w.yd, r))
			}
		})
	}
}

func (w *nestedWeak) reference(k int) {
	pr := &w.programs[k%len(w.programs)]
	copy(w.ref, w.y0)
	for c, cuts := range pr.cuts {
		for j := 0; j+1 < len(cuts); j++ {
			lo, hi := cuts[j], cuts[j+1]
			axpy(w.ref[lo:hi], w.x[lo:hi], pr.alpha[c])
		}
	}
}

func (w *nestedWeak) verify() bool { return slices.Equal(w.y, w.ref) }

func (w *nestedWeak) preds(k, task int32) []int32 {
	return w.programs[int(k)%len(w.programs)].preds[task]
}

// gsGraph runs Gauss-Seidel sweeps over a seeded plane, one Graph region
// per sweep, so every sweep after the recording one replays.
type gsGraph struct {
	seed      uint64
	n, ts, b  int64
	a, ref    []float64
	refSweeps int
	specs     []nanos.TaskSpec
	ad        nanos.DataID
	side      int64
}

func (w *gsGraph) config(workers int) nanos.Config { return baseConfig(workers) }
func (w *gsGraph) programPerStep() bool            { return false }

// warmups: the recording sweep and the first replay.
func (w *gsGraph) warmups() int      { return 2 }
func (w *gsGraph) spansPerStep() int { return 2*int(w.b*w.b) + 4 }

func (w *gsGraph) prepare() {
	rng := rand.New(rand.NewPCG(w.seed, 2))
	w.b = w.n / w.ts
	w.side = w.b + 2
	w.a = randVec(rng, (w.n+2)*(w.n+2))
	w.ref = slices.Clone(w.a)
	w.refSweeps = 0
}

// gsKernel applies the in-place 5-point update to tile (bi, bj) (1-based
// block coordinates) of the (n+2)×(n+2) plane a.
func gsKernel(a []float64, n, ts, bi, bj int64) {
	m := n + 2
	r0, c0 := (bi-1)*ts+1, (bj-1)*ts+1
	for r := r0; r < r0+ts; r++ {
		row, up, down := r*m, (r-1)*m, (r+1)*m
		for c := c0; c < c0+ts; c++ {
			a[row+c] = 0.25 * (a[up+c] + a[row+c-1] + a[row+c+1] + a[down+c])
		}
	}
}

func (w *gsGraph) register(rt *nanos.Runtime) {
	w.ad = rt.NewData("A", w.side*w.side*w.ts*w.ts, 8)
	blk := func(i, j int64) nanos.Interval { return nanos.BlockInterval(w.side, w.ts, i, j) }
	w.specs = w.specs[:0]
	for i := int64(1); i <= w.b; i++ {
		for j := int64(1); j <= w.b; j++ {
			w.specs = append(w.specs, nanos.TaskSpec{
				Label: "tile",
				Deps: []nanos.Dep{
					nanos.DIn(w.ad, blk(i-1, j)),
					nanos.DIn(w.ad, blk(i, j-1)),
					nanos.DInOut(w.ad, blk(i, j)),
					nanos.DIn(w.ad, blk(i, j+1)),
					nanos.DIn(w.ad, blk(i+1, j)),
				},
				Body: func(*nanos.TaskContext) { gsKernel(w.a, w.n, w.ts, i, j) },
			})
		}
	}
}

func (w *gsGraph) step(b *bench, tc *nanos.TaskContext, sp int32, k int) {
	b.graph(tc, sp, int32(k), "gs-sweep", func(tc *nanos.TaskContext, sp int32) {
		for t, s := range w.specs {
			b.submit(tc, sp, int32(k), int32(t), s)
		}
	})
}

func (w *gsGraph) reference(k int) {
	for ; w.refSweeps <= k; w.refSweeps++ {
		for i := int64(1); i <= w.b; i++ {
			for j := int64(1); j <= w.b; j++ {
				gsKernel(w.ref, w.n, w.ts, i, j)
			}
		}
	}
}

func (w *gsGraph) verify() bool { return slices.Equal(w.a, w.ref) }

// preds: the tiles above and to the left, updated earlier in the sweep.
func (w *gsGraph) preds(_, task int32) []int32 {
	i, j := int64(task)/w.b, int64(task)%w.b
	var ps []int32
	if i > 0 {
		ps = append(ps, task-int32(w.b))
	}
	if j > 0 {
		ps = append(ps, task-1)
	}
	return ps
}

// spawnChain is one generator submitting a batch of fine tasks, each an
// inout on one of a few small data objects, then waiting for the batch:
// the single-generator, single-dependency-chain critical path.
type spawnChain struct {
	seed                 uint64
	batch, chains, progs int
	minLen, maxLen       int
	programs             []scProgram
	state, ref           []uint64 // one word per chain, 8 words apart
	data                 []nanos.DataID
	refSteps             int
}

type scProgram struct {
	specs []nanos.TaskSpec
	chain []int
	key   []uint64
	n     []int
	pred  [][]int32 // the previous task on the same chain
}

// chainStride spaces the chain states a cache line apart.
const chainStride = 8

// chainKernel is the spawn-chain task body: n rounds of mixing a key into
// the chain's state. The result depends on the order the chain's tasks
// run in, so the output checks the dependency order too.
func chainKernel(s, key uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		s = mix64(s ^ key)
		key += 0x9e3779b97f4a7c15
	}
	return s
}

func (w *spawnChain) config(workers int) nanos.Config {
	c := baseConfig(workers)
	c.ThrottleOpenTasks = 4 * workers
	return c
}
func (w *spawnChain) programPerStep() bool { return false }
func (w *spawnChain) warmups() int         { return 2 }
func (w *spawnChain) spansPerStep() int    { return 2*w.batch + 4 }

func (w *spawnChain) prepare() {
	rng := rand.New(rand.NewPCG(w.seed, 3))
	w.state = make([]uint64, w.chains*chainStride)
	for c := 0; c < w.chains; c++ {
		w.state[c*chainStride] = rng.Uint64()
	}
	w.ref = slices.Clone(w.state)
	w.refSteps = 0
	w.programs = make([]scProgram, w.progs)
	for p := range w.programs {
		pr := &w.programs[p]
		last := make([]int32, w.chains)
		for c := range last {
			last[c] = -1
		}
		// Every chain gets the same number of tasks, in a seeded order.
		pr.chain = make([]int, w.batch)
		for t := range pr.chain {
			pr.chain[t] = t % w.chains
		}
		rng.Shuffle(len(pr.chain), func(i, j int) { pr.chain[i], pr.chain[j] = pr.chain[j], pr.chain[i] })
		for t, c := range pr.chain {
			pr.key = append(pr.key, rng.Uint64())
			pr.n = append(pr.n, w.minLen+rng.IntN(w.maxLen-w.minLen+1))
			if last[c] >= 0 {
				pr.pred = append(pr.pred, []int32{last[c]})
			} else {
				pr.pred = append(pr.pred, nil)
			}
			last[c] = int32(t)
		}
	}
}

func (w *spawnChain) register(rt *nanos.Runtime) {
	w.data = w.data[:0]
	for c := 0; c < w.chains; c++ {
		w.data = append(w.data, rt.NewData(fmt.Sprintf("chain%d", c), chainStride, 8))
	}
	for p := range w.programs {
		pr := &w.programs[p]
		pr.specs = pr.specs[:0]
		for t, c := range pr.chain {
			s, key, n := &w.state[c*chainStride], pr.key[t], pr.n[t]
			pr.specs = append(pr.specs, nanos.TaskSpec{
				Label: "link",
				Deps:  []nanos.Dep{nanos.DInOut(w.data[c], nanos.Iv(0, chainStride))},
				Body:  func(*nanos.TaskContext) { *s = chainKernel(*s, key, n) },
			})
		}
	}
}

func (w *spawnChain) step(b *bench, tc *nanos.TaskContext, sp int32, k int) {
	pr := &w.programs[k%len(w.programs)]
	for t, s := range pr.specs {
		b.submit(tc, sp, int32(k), int32(t), s)
	}
	b.taskwait(tc, sp, int32(k))
}

func (w *spawnChain) reference(k int) {
	for ; w.refSteps <= k; w.refSteps++ {
		pr := &w.programs[w.refSteps%len(w.programs)]
		for t, c := range pr.chain {
			s := &w.ref[c*chainStride]
			*s = chainKernel(*s, pr.key[t], pr.n[t])
		}
	}
}

func (w *spawnChain) verify() bool { return slices.Equal(w.state, w.ref) }

func (w *spawnChain) preds(k, task int32) []int32 {
	return w.programs[int(k)%len(w.programs)].pred[task]
}

// wsAxpy is one worksharing region per step followed by a Taskwait: every
// fine-grained chunk applies calls AXPY updates to its slice, so a chunk
// works in cache. Each step's bounds and coefficients come from the seed.
type wsAxpy struct {
	seed      uint64
	n, grain  int64
	calls     int
	x, y, ref []float64
	xd, yd    nanos.DataID
	refSteps  int
}

func (w *wsAxpy) config(workers int) nanos.Config { return baseConfig(workers) }
func (w *wsAxpy) programPerStep() bool            { return false }
func (w *wsAxpy) warmups() int                    { return 2 }
func (w *wsAxpy) spansPerStep() int               { return int(w.n/w.grain) + 6 }

func (w *wsAxpy) prepare() {
	rng := rand.New(rand.NewPCG(w.seed, 4))
	w.x, w.y = randVec(rng, w.n), randVec(rng, w.n)
	w.ref = slices.Clone(w.y)
	w.refSteps = 0
}

// shape returns step k's loop bounds and the coefficients of its AXPY
// updates.
func (w *wsAxpy) shape(k int) (lo, hi int64, as []float64) {
	h := mix64(w.seed ^ mix64(uint64(k)+1))
	lo = int64(h % uint64(w.grain))
	hi = w.n - int64((h>>20)%uint64(w.grain))
	for range w.calls {
		h = mix64(h)
		as = append(as, float64(h>>40)/float64(1<<24)*2-1)
	}
	return lo, hi, as
}

// multiAxpy applies y += a·x for every a in as, in order.
func multiAxpy(y, x, as []float64) {
	for _, a := range as {
		axpy(y, x, a)
	}
}

func (w *wsAxpy) register(rt *nanos.Runtime) {
	w.xd = rt.NewData("x", w.n, 8)
	w.yd = rt.NewData("y", w.n, 8)
}

func (w *wsAxpy) step(b *bench, tc *nanos.TaskContext, sp int32, k int) {
	lo, hi, as := w.shape(k)
	b.worksharing(tc, sp, int32(k), 0, nanos.WorksharingSpec{
		Label: "axpy-ws",
		Lo:    lo, Hi: hi, Grain: w.grain,
		Deps: func(lo, hi int64) []nanos.Dep {
			r := nanos.Iv(lo, hi)
			return []nanos.Dep{nanos.DIn(w.xd, r), nanos.DInOut(w.yd, r)}
		},
		Body: func(_ *nanos.TaskContext, lo, hi int64) { multiAxpy(w.y[lo:hi], w.x[lo:hi], as) },
	})
	b.taskwait(tc, sp, int32(k))
}

func (w *wsAxpy) reference(k int) {
	for ; w.refSteps <= k; w.refSteps++ {
		lo, hi, as := w.shape(w.refSteps)
		multiAxpy(w.ref[lo:hi], w.x[lo:hi], as)
	}
}

func (w *wsAxpy) verify() bool { return slices.Equal(w.y, w.ref) }

func (w *wsAxpy) preds(_, _ int32) []int32 { return nil }
