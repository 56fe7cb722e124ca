package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randtest"
	"repro/internal/replay"
)

// Graph-region tests: the record-and-replay cache must be observably
// identical to live execution (same final data state, same task counts)
// over randomized iterative programs, must fall back transparently on
// shape changes and unfinished external producers, and must leak no
// countdown nodes.

// gtask is one task of a generated iterative program: deterministic body
// effects derived from the depend entries, so any legal execution order
// produces the same final state.
type gtask struct {
	deps []Dep
	seed int64
}

// gprog is a generated program: a task list submitted once per iteration.
type gprog struct {
	tasks []gtask
	datas int
	elems int64
}

// genProg builds a random task set over a few data objects. Each task
// takes at most one entry per data object (the engine rejects overlapping
// own entries), with random type and interval.
func genProg(rng *rand.Rand) gprog {
	return genProgU(rng, 1+rng.Intn(3), 48)
}

// genProgU generates over an explicit universe (datas objects of elems
// elements), so two programs can share one runtime's data.
func genProgU(rng *rand.Rand, datas int, elems int64) gprog {
	p := gprog{datas: datas, elems: elems}
	n := 1 + rng.Intn(18)
	for i := 0; i < n; i++ {
		var ds []Dep
		for d := 0; d < p.datas; d++ {
			if rng.Intn(3) == 0 {
				continue
			}
			lo := rng.Int63n(p.elems - 1)
			hi := lo + 1 + rng.Int63n(p.elems-lo-1)
			typ := []AccessType{In, Out, InOut, InOut, Red}[rng.Intn(5)]
			ds = append(ds, Dep{Data: DataID(d), Type: typ, Ivs: []Interval{iv(lo, hi)}})
		}
		p.tasks = append(p.tasks, gtask{deps: ds, seed: int64(i + 1)})
	}
	return p
}

// run executes iters iterations of the program as Graph regions and
// returns the final data state. Bodies apply deterministic per-element
// updates: writers chain a multiplicative hash (ordered by the engine or
// the replayed graph), readers fold what they see into a commutative
// checksum, reductions add atomically (commuting within their group).
func (p gprog) run(t *testing.T, cfg Config, iters int) ([][]int64, int64, *Runtime) {
	t.Helper()
	r := New(cfg)
	data := make([][]int64, p.datas)
	ids := make([]DataID, p.datas)
	for d := range data {
		data[d] = make([]int64, p.elems)
		ids[d] = r.NewData(fmt.Sprintf("d%d", d), p.elems, 8)
	}
	var checksum atomic.Int64
	err := r.RunChecked(func(tc *TaskContext) {
		for it := 0; it < iters; it++ {
			mult := int64(it*131 + 7)
			tc.Graph("prog", func(tc *TaskContext) {
				for _, gt := range p.tasks {
					gt := gt
					tc.Submit(TaskSpec{
						Label: "t",
						Deps:  gt.deps,
						Body: func(*TaskContext) {
							applyEffects(data, gt, mult, &checksum)
						},
					})
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return data, checksum.Load(), r
}

// TestGraphReplayDifferential drives random iterative programs through
// identical Graph-region structures with the cache on and off: final data
// state, reader checksums, and task counts must match exactly, the cached
// run must actually replay, and nothing may leak.
func TestGraphReplayDifferential(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	for _, s := range randtest.SeedRange(t, 0, int64(seeds)) {
		rng := rand.New(rand.NewSource(s*977 + 5))
		p := genProg(rng)
		iters := 2 + rng.Intn(5)
		workers := 1 + rng.Intn(4)
		base := Config{Workers: workers, Debug: true}

		offCfg := base
		offCfg.Replay = replay.KindOff
		offData, offSum, offRT := p.run(t, offCfg, iters)

		onCfg := base
		onCfg.Replay = replay.KindOn
		onData, onSum, onRT := p.run(t, onCfg, iters)

		for d := range offData {
			for e := range offData[d] {
				if offData[d][e] != onData[d][e] {
					t.Fatalf("seed %d: data %d elem %d diverged: live %d, replay %d",
						s, d, e, offData[d][e], onData[d][e])
				}
			}
		}
		if offSum != onSum {
			t.Fatalf("seed %d: reader checksum diverged: live %d, replay %d", s, offSum, onSum)
		}
		if off, on := offRT.TaskCount(), onRT.TaskCount(); off != on {
			t.Fatalf("seed %d: task count diverged: live %d, replay %d", s, off, on)
		}
		st := onRT.ReplayStats()
		if st.Records != 1 {
			t.Fatalf("seed %d: %d recordings, want 1 (%+v)", s, st.Records, st)
		}
		if st.Replays != int64(iters-1) {
			t.Fatalf("seed %d: %d replays over %d iterations (%+v)", s, st.Replays, iters, st)
		}
		if st.Invalidations != 0 || st.Fallbacks != 0 {
			t.Fatalf("seed %d: unexpected invalidations/fallbacks for a stable shape: %+v", s, st)
		}
		if n := onRT.ReplayPoolStats().Outstanding(); n != 0 {
			t.Fatalf("seed %d: %d countdown nodes outstanding after drain", s, n)
		}
	}
}

// TestGraphShapeFlipInvalidation is the invalidation stress: a region
// alternates between two shapes every k iterations, so every flip hits a
// fingerprint mismatch mid-region (or a count mismatch at its end) and
// must fall back to the live engine without losing tasks, corrupting
// state, or leaking countdown nodes. Run with -race.
func TestGraphShapeFlipInvalidation(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("k%d_w%d", k, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(k*31 + workers)))
				a := genProgU(rng, 3, 48)
				b := genProgU(rng, 3, 48) // same universe, different shape
				iters := 12
				run := func(cache replay.Kind) ([][]int64, int64, *Runtime) {
					r := New(Config{Workers: workers, Debug: true, Replay: cache})
					data := make([][]int64, a.datas)
					for d := range data {
						data[d] = make([]int64, a.elems)
						r.NewData(fmt.Sprintf("d%d", d), a.elems, 8)
					}
					var checksum atomic.Int64
					err := r.RunChecked(func(tc *TaskContext) {
						for it := 0; it < iters; it++ {
							p := a
							if (it/k)%2 == 1 {
								p = b
							}
							mult := int64(it*131 + 7)
							tc.Graph("flip", func(tc *TaskContext) {
								for _, gt := range p.tasks {
									gt := gt
									tc.Submit(TaskSpec{Label: "t", Deps: gt.deps,
										Body: func(*TaskContext) {
											applyEffects(data, gt, mult, &checksum)
										}})
								}
							})
						}
					})
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					return data, checksum.Load(), r
				}
				offData, offSum, offRT := run(replay.KindOff)
				onData, onSum, onRT := run(replay.KindOn)
				for d := range offData {
					for e := range offData[d] {
						if offData[d][e] != onData[d][e] {
							t.Fatalf("data %d elem %d diverged: live %d, replay %d", d, e, offData[d][e], onData[d][e])
						}
					}
				}
				if offSum != onSum {
					t.Fatalf("reader checksum diverged: live %d, replay %d", offSum, onSum)
				}
				if off, on := offRT.TaskCount(), onRT.TaskCount(); off != on {
					t.Fatalf("lost tasks: live %d, replay %d", off, on)
				}
				st := onRT.ReplayStats()
				if st.Invalidations == 0 {
					t.Fatalf("no invalidations despite shape flips: %+v", st)
				}
				if st.Records < 2 {
					t.Fatalf("flipped region never re-recorded: %+v", st)
				}
				if n := onRT.ReplayPoolStats().Outstanding(); n != 0 {
					t.Fatalf("%d countdown nodes outstanding after drain (stale nodes escaped an invalidation)", n)
				}
			})
		}
	}
}

func applyEffects(data [][]int64, gt gtask, mult int64, checksum *atomic.Int64) {
	for _, dep := range gt.deps {
		arr := data[dep.Data]
		for _, v := range dep.Ivs {
			for e := v.Lo; e < v.Hi; e++ {
				switch dep.Type {
				case In:
					checksum.Add(arr[e] * (gt.seed + e))
				case Red:
					atomic.AddInt64(&arr[e], gt.seed*mult)
				case Out:
					arr[e] = gt.seed * mult
				default:
					arr[e] = arr[e]*31 + gt.seed*mult
				}
			}
		}
	}
}

// TestGraphGuardFallback: a region whose input has an unfinished external
// producer at replay time must run live (the union guard defers), and the
// region tasks must still order after the producer.
func TestGraphGuardFallback(t *testing.T) {
	r := New(Config{Workers: 4, Debug: true, Replay: replay.KindOn})
	d := r.NewData("x", 8, 8)
	var order atomic.Int64 // bit-packed completion order check
	var wrong atomic.Int64
	const iters = 5
	err := r.RunChecked(func(tc *TaskContext) {
		for it := 0; it < iters; it++ {
			seq := int64(it)
			// External producer, deliberately slow: still running when the
			// region's guard registers on every iteration after the first.
			tc.Submit(TaskSpec{
				Label: "producer",
				Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 8)}}},
				Body: func(*TaskContext) {
					time.Sleep(2 * time.Millisecond)
					order.Store(seq * 2)
				},
			})
			tc.Graph("consumer", func(tc *TaskContext) {
				tc.Submit(TaskSpec{
					Label: "consume",
					Deps:  []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 8)}}},
					Body: func(*TaskContext) {
						if order.Load() != seq*2 {
							wrong.Add(1) // ran before its producer finished
						}
						order.Store(seq*2 + 1)
					},
				})
			})
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d region tasks ran before their external producer", wrong.Load())
	}
	st := r.ReplayStats()
	if st.Fallbacks == 0 {
		t.Fatalf("guard never fell back despite a pending producer: %+v", st)
	}
	if st.Invalidations != 0 {
		t.Fatalf("stable shape must not invalidate: %+v", st)
	}
	if n := r.ReplayPoolStats().Outstanding(); n != 0 {
		t.Fatalf("%d countdown nodes outstanding", n)
	}
}

// TestGraphIneligibleShapes: weakwait tasks, weak entries, nested
// submissions, and release directives in a region must permanently
// disable replay for that recording — runs stay live (and correct), with
// fallbacks counted.
func TestGraphIneligibleShapes(t *testing.T) {
	cases := []struct {
		name string
		spec func(d DataID, leaf func(*TaskContext)) TaskSpec
	}{
		{"weakwait", func(d DataID, leaf func(*TaskContext)) TaskSpec {
			return TaskSpec{Label: "ww", WeakWait: true,
				Deps: []Dep{{Data: d, Type: InOut, Weak: true, Ivs: []Interval{iv(0, 8)}}},
				Body: func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "inner",
						Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 8)}}},
						Body: leaf})
				}}
		}},
		{"nested", func(d DataID, leaf func(*TaskContext)) TaskSpec {
			return TaskSpec{Label: "outer",
				Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 8)}}},
				Body: func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "inner", Body: leaf})
				}}
		}},
		{"release", func(d DataID, leaf func(*TaskContext)) TaskSpec {
			return TaskSpec{Label: "rel",
				Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 8)}}},
				Body: func(tc *TaskContext) {
					leaf(tc)
					tc.Release(Dep{Data: d, Ivs: []Interval{iv(0, 4)}})
				}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := New(Config{Workers: 2, Debug: true, Replay: replay.KindOn})
			d := r.NewData("x", 8, 8)
			var runs atomic.Int64
			const iters = 4
			err := r.RunChecked(func(tc *TaskContext) {
				for it := 0; it < iters; it++ {
					tc.Graph("inel", func(tc *TaskContext) {
						tc.Submit(c.spec(d, func(*TaskContext) { runs.Add(1) }))
					})
				}
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if runs.Load() != iters {
				t.Fatalf("leaf ran %d times, want %d", runs.Load(), iters)
			}
			st := r.ReplayStats()
			if st.Replays != 0 {
				t.Fatalf("ineligible shape replayed: %+v", st)
			}
			if st.Fallbacks != iters-1 {
				t.Fatalf("fallbacks = %d, want %d: %+v", st.Fallbacks, iters-1, st)
			}
			if st.Invalidations != 0 {
				t.Fatalf("stable ineligible shape must not invalidate: %+v", st)
			}
		})
	}
}

// TestGraphNestedRegion: a Graph inside a Graph runs live with barrier
// semantics and poisons the outer recording's eligibility.
func TestGraphNestedRegion(t *testing.T) {
	r := New(Config{Workers: 2, Debug: true, Replay: replay.KindOn})
	d := r.NewData("x", 4, 8)
	var val int64
	err := r.RunChecked(func(tc *TaskContext) {
		for it := 0; it < 3; it++ {
			tc.Graph("outer", func(tc *TaskContext) {
				tc.Graph("inner", func(tc *TaskContext) {
					tc.Submit(TaskSpec{Label: "t",
						Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 4)}}},
						Body: func(*TaskContext) { val++ }})
				})
				// The inner region's barrier has passed: val is visible.
				if val%1000 == 0 {
					t.Error("inner barrier did not wait")
				}
				val *= 1000
			})
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if st := r.ReplayStats(); st.Replays != 0 {
		t.Fatalf("nested region must not replay: %+v", st)
	}
}

// TestGraphBarrier: Graph must not return before every region task (and
// its descendants) completed, in every mode.
func TestGraphBarrier(t *testing.T) {
	for _, kind := range []replay.Kind{replay.KindOff, replay.KindOn} {
		r := New(Config{Workers: 4, Debug: true, Replay: kind})
		d := r.NewData("x", 4, 8)
		var done atomic.Int64
		err := r.RunChecked(func(tc *TaskContext) {
			for it := 0; it < 4; it++ {
				tc.Graph("b", func(tc *TaskContext) {
					for i := 0; i < 8; i++ {
						i := i
						tc.Submit(TaskSpec{Label: "t",
							Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(int64(i%4), int64(i%4)+1)}}},
							Body: func(*TaskContext) {
								time.Sleep(100 * time.Microsecond)
								done.Add(1)
							}})
					}
				})
				if got, want := done.Load(), int64((it+1)*8); got != want {
					t.Fatalf("kind %v iter %d: %d tasks done at barrier, want %d", kind, it, got, want)
				}
			}
		})
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
	}
}

// TestGraphVirtualInline: virtual mode runs the body inline with no
// recording.
func TestGraphVirtualInline(t *testing.T) {
	r := New(Config{Workers: 2, Virtual: true})
	d := r.NewData("x", 4, 8)
	var n int
	r.Run(func(tc *TaskContext) {
		tc.Graph("v", func(tc *TaskContext) {
			tc.Submit(TaskSpec{Label: "t",
				Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(0, 4)}}},
				Body: func(*TaskContext) { n++ }})
		})
	})
	if n != 1 {
		t.Fatalf("task ran %d times, want 1", n)
	}
	if st := r.ReplayStats(); st != (replay.Stats{}) {
		t.Fatalf("virtual mode must not record: %+v", st)
	}
}

// TestGraphThrottled: replayed admissions must respect the open-task
// window exactly like live ones (reserve/enter/cascade accounting stays
// balanced through both paths).
func TestGraphThrottled(t *testing.T) {
	for _, kind := range []replay.Kind{replay.KindOff, replay.KindOn} {
		r := New(Config{Workers: 2, ThrottleOpenTasks: 2, Debug: true, Replay: kind})
		d := r.NewData("x", 16, 8)
		var runs atomic.Int64
		err := r.RunChecked(func(tc *TaskContext) {
			for it := 0; it < 4; it++ {
				tc.Graph("th", func(tc *TaskContext) {
					for i := int64(0); i < 16; i++ {
						i := i
						tc.Submit(TaskSpec{Label: "t",
							Deps: []Dep{{Data: d, Type: InOut, Ivs: []Interval{iv(i%8, i%8+1)}}},
							Body: func(*TaskContext) { runs.Add(1) }})
					}
				})
			}
		})
		if err != nil {
			t.Fatalf("kind %v: run failed: %v", kind, err)
		}
		if runs.Load() != 64 {
			t.Fatalf("kind %v: %d runs, want 64", kind, runs.Load())
		}
	}
}

// TestReplayW1Parity is the uncontended regression guard (mirrors
// TestSchedW1Parity and friends): replaying a region at w=1 must not cost
// materially more than the live engine — the whole point of the frozen
// graph is to be cheaper.
func TestReplayW1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard; skipped in short mode")
	}
	if raceEnabledCore {
		t.Skip("timing guard; race instrumentation skews the comparison")
	}
	const tiles = 6 // 6x6 wavefront
	const iters = 300
	const trials = 5
	sweep := func(kind replay.Kind) time.Duration {
		r := New(Config{Workers: 1, Replay: kind})
		d := r.NewData("a", tiles*tiles, 8)
		blk := func(i, j int64) Interval {
			if i < 0 || j < 0 || i >= tiles || j >= tiles {
				return Interval{}
			}
			k := i*tiles + j
			return iv(k, k+1)
		}
		start := time.Now()
		r.Run(func(tc *TaskContext) {
			for it := 0; it < iters; it++ {
				tc.Graph("gs", func(tc *TaskContext) {
					for i := int64(0); i < tiles; i++ {
						for j := int64(0); j < tiles; j++ {
							deps := []Dep{{Data: d, Type: InOut, Ivs: []Interval{blk(i, j)}}}
							for _, nb := range []Interval{blk(i-1, j), blk(i, j-1), blk(i, j+1), blk(i+1, j)} {
								if !nb.Empty() {
									deps = append(deps, Dep{Data: d, Type: In, Ivs: []Interval{nb}})
								}
							}
							tc.Submit(TaskSpec{Label: "tile", Deps: deps, Body: func(*TaskContext) {}})
						}
					}
				})
			}
		})
		return time.Since(start)
	}
	best := map[replay.Kind]time.Duration{replay.KindOff: 1<<63 - 1, replay.KindOn: 1<<63 - 1}
	for trial := 0; trial < trials; trial++ {
		for _, kind := range []replay.Kind{replay.KindOff, replay.KindOn} {
			runtime.GC()
			if dur := sweep(kind); dur < best[kind] {
				best[kind] = dur
			}
		}
	}
	if f := float64(best[replay.KindOn]) / float64(best[replay.KindOff]); f > 1.5 {
		t.Errorf("replay w=1: %.2fx slower than live (%v vs %v); the frozen-graph path regressed",
			f, best[replay.KindOn], best[replay.KindOff])
	} else {
		t.Logf("replay w=1: %.2fx of live (%v vs %v)", float64(best[replay.KindOn])/float64(best[replay.KindOff]),
			best[replay.KindOn], best[replay.KindOff])
	}
}
