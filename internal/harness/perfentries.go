package harness

// The perf-trajectory entry registry: the benchmark matrix cmd/perftrack
// collects on every run. One PerfEntry = one named, unit-carrying
// measurement (a depbench kernel configuration or a reproduce workload);
// its Run function performs ONE measurement pass, and the caller repeats
// it under coefficient-of-variation validation (internal/perfstat).
//
// Entry names are stable identifiers — they key the comparison against
// BENCH_history.json records, so renaming one orphans its trajectory.

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	nanos "repro"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/mempool"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// PerfEntry is one tracked measurement of the trajectory matrix.
type PerfEntry struct {
	// Name keys the trajectory, e.g. "deps/sharded-pool/w4".
	Name string
	// Unit is the lower-is-better unit Run returns, e.g. "ns/op".
	Unit string
	// Run performs one measurement pass.
	Run func() float64
}

// PerfMatrix sizes the entry matrix.
type PerfMatrix struct {
	// Workers are the widths the kernel tables sweep.
	Workers []int
	// Quick shrinks every op count for smoke runs. Quick collections are
	// never comparable to full ones (perfstat.Record.Quick).
	Quick bool
}

// maxWorkers returns the widest configured width (the reproduce
// workloads run once, at full width).
func (m PerfMatrix) maxWorkers() int {
	max := 1
	for _, w := range m.Workers {
		if w > max {
			max = w
		}
	}
	return max
}

// atWidth raises GOMAXPROCS to at least w around one measurement.
func atWidth(w int, f func() float64) float64 {
	prev := runtime.GOMAXPROCS(0)
	if w > prev {
		runtime.GOMAXPROCS(w)
	}
	defer runtime.GOMAXPROCS(prev)
	return f()
}

// perfGSParams returns the Gauss-Seidel sizing shared by the workload
// entries and the regression diagnosis trace.
func perfGSParams(quick bool) workloads.GSParams {
	if quick {
		return workloads.GSParams{N: 96, TS: 16, Iters: 6, Compute: true}
	}
	return workloads.GSParams{N: 256, TS: 32, Iters: 12, Compute: true}
}

// PerfEntries builds the trajectory matrix: every depbench kernel
// configuration (deps, sched, throttle, replay, ws, wait) at every
// configured width, plus the reproduce workloads (graph-replay
// Gauss-Seidel and heat sweeps, fine-grain worksharing AXPY) at the
// widest width.
func PerfEntries(m PerfMatrix) []PerfEntry {
	depsOps, schedOps, throttleOps := 200_000, 1_000_000, 2_000_000
	replayBlocks, replayIters := 8, 150
	wsIters, wsGrain, wsN := 50, int64(64), int64(1<<15)
	waitReps, waitFan := 60, 8
	localityOps, localitySpin := 200_000, 400
	if m.Quick {
		depsOps, schedOps, throttleOps = 20_000, 100_000, 200_000
		replayBlocks, replayIters = 4, 25
		wsIters, wsN = 10, 1<<13
		waitReps, waitFan = 15, 4
		localityOps = 20_000
	}
	var out []PerfEntry
	add := func(name, unit string, run func() float64) {
		out = append(out, PerfEntry{Name: name, Unit: unit, Run: run})
	}

	for _, w := range m.Workers {
		w := w
		for _, row := range []struct {
			name string
			kind deps.EngineKind
			mem  mempool.Kind
		}{
			{"global", deps.EngineGlobal, mempool.KindReference},
			{"sharded", deps.EngineSharded, mempool.KindReference},
			{"sharded-pool", deps.EngineSharded, mempool.KindPooled},
		} {
			row := row
			add(fmt.Sprintf("deps/%s/w%d", row.name, w), "ns/op", func() float64 {
				return atWidth(w, func() float64 {
					c := DepsBench(row.kind, row.mem, w, depsOps)
					return float64(c.Wall) / float64(c.Ops)
				})
			})
		}
		for _, p := range SchedPools {
			p := p
			add(fmt.Sprintf("sched/%s/w%d", p.Name, w), "ns/op", func() float64 {
				return atWidth(w, func() float64 {
					c, _ := SchedBench(p.Make, w, schedOps)
					return float64(c.Wall) / float64(c.Ops)
				})
			})
		}
		// The "locked" name predates the single window and keeps the
		// committed history comparable.
		add(fmt.Sprintf("throttle/locked/w%d", w), "ns/op", func() float64 {
			return atWidth(w, func() float64 {
				c, _ := ThrottleBench(w, throttleOps, w)
				return float64(c.Wall) / float64(c.Ops)
			})
		})
		for _, v := range []ReplayVariant{ReplayNestWeak, ReplayLiveGraph, ReplayFrozen} {
			v := v
			add(fmt.Sprintf("replay/%s/w%d", v, w), "us/iter", func() float64 {
				return atWidth(w, func() float64 {
					c, _ := ReplayOverheadBench(v, w, replayBlocks, replayIters)
					return float64(c.Wall) / float64(time.Microsecond) / float64(replayIters)
				})
			})
		}
		for _, row := range []struct {
			name string
			kind core.WorksharingKind
		}{
			{"expand", core.WorksharingExpand},
			{"chunked", core.WorksharingChunked},
		} {
			row := row
			add(fmt.Sprintf("ws/%s/w%d", row.name, w), "us/iter", func() float64 {
				return atWidth(w, func() float64 {
					res := WSChunkBench(row.kind, w, wsIters, wsGrain, wsN)
					return float64(res.Wall) / float64(time.Microsecond) / float64(wsIters)
				})
			})
		}
		for _, row := range []struct {
			name string
			kind core.TaskwaitKind
		}{
			{"parking", core.TaskwaitParking},
			{"continuation", core.TaskwaitContinuation},
		} {
			row := row
			add(fmt.Sprintf("wait/%s/w%d", row.name, w), "us/wait", func() float64 {
				return atWidth(w, func() float64 {
					res := WaitBench(row.kind, w, waitReps, waitFan)
					if res.Waits == 0 {
						return 0
					}
					return float64(res.Wall) / float64(time.Microsecond) / float64(res.Waits)
				})
			})
		}
		for _, tp := range LocalityTopologies {
			tp := tp
			add(fmt.Sprintf("locality/%s/w%d", tp.Name, w), "ns/op", func() float64 {
				return atWidth(w, func() float64 {
					res := LocalityBench(tp.Topo, w, localityOps, localitySpin)
					return float64(res.Wall) / float64(res.Ops)
				})
			})
		}
	}

	// Reproduce workloads at full width: end-to-end sweeps with real
	// bodies, the numbers BENCH_replay.json / BENCH_ws.json snapshot.
	cores := m.maxWorkers()
	gsP := perfGSParams(m.Quick)
	heatP := workloads.HeatParams{N: 256, TS: 32, Iters: 12, Compute: true}
	axP := workloads.AxpyParams{N: 1 << 19, Calls: 8, TaskSize: 256, Alpha: 1.5, Compute: true}
	if m.Quick {
		heatP = workloads.HeatParams{N: 96, TS: 16, Iters: 6, Compute: true}
		axP = workloads.AxpyParams{N: 1 << 15, Calls: 4, TaskSize: 128, Alpha: 1.5, Compute: true}
	}
	msPerSweep := func(res workloads.Result, err error, iters int) float64 {
		if err != nil {
			panic(fmt.Sprintf("harness: perf workload failed: %v", err))
		}
		return float64(res.Wall) / float64(time.Millisecond) / float64(iters)
	}
	for _, kind := range []nanos.ReplayKind{nanos.ReplayOff, nanos.ReplayOn} {
		kind := kind
		add(fmt.Sprintf("workload/gs-graph/replay-%s/w%d", kind, cores), "ms/sweep", func() float64 {
			return atWidth(cores, func() float64 {
				res, err := workloads.RunGS(workloads.Mode{Workers: cores, Replay: kind}, workloads.GSGraph, gsP)
				return msPerSweep(res, err, gsP.Iters)
			})
		})
		add(fmt.Sprintf("workload/heat/replay-%s/w%d", kind, cores), "ms/sweep", func() float64 {
			return atWidth(cores, func() float64 {
				res, err := workloads.RunHeat(workloads.Mode{Workers: cores, Replay: kind}, heatP)
				return msPerSweep(res, err, heatP.Iters)
			})
		})
	}
	add(fmt.Sprintf("workload/axpy-ws/chunked/w%d", cores), "ms/call", func() float64 {
		return atWidth(cores, func() float64 {
			res, err := workloads.RunAxpy(
				workloads.Mode{Workers: cores, Worksharing: nanos.WorksharingChunked},
				workloads.AxpyWorksharing, axP)
			return msPerSweep(res, err, axP.Calls)
		})
	})
	sortP := workloads.SortParams{N: 1 << 16, TS: 1 << 9, Seed: 42}
	if m.Quick {
		sortP = workloads.SortParams{N: 1 << 13, TS: 1 << 8, Seed: 42}
	}
	add(fmt.Sprintf("workload/sortsum/weak/w%d", cores), "ms/run", func() float64 {
		return atWidth(cores, func() float64 {
			res, err := workloads.RunSortSum(workloads.Mode{Workers: cores}, workloads.SortWeak, sortP)
			return msPerSweep(res, err, 1)
		})
	})
	// Watchdog overhead A/B: the identical flat-dependency sweep with the
	// stall watchdog off vs on, pinned at width 4 (independent of the
	// matrix widths) so the pair keys a stable trajectory. The on-entry
	// pays the per-dispatch heartbeat stores plus the sampling monitor;
	// TestWatchdogOverhead gates the pair's ratio at <1%.
	for _, row := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		row := row
		add(fmt.Sprintf("workload/gs-flat/watchdog-%s/w4", row.name), "ms/sweep", func() float64 {
			return atWidth(4, func() float64 {
				res, err := workloads.RunGS(
					workloads.Mode{Workers: 4, Watchdog: row.on}, workloads.GSFlatDepend, gsP)
				return msPerSweep(res, err, gsP.Iters)
			})
		})
	}
	return out
}

// Diagnose reruns a traced workload matched to the regressed entry's
// family at the given width and classifies the trace against the
// detrimental execution patterns of Tuft et al.
// (internal/trace.DetectPatterns), printing the ASCII timeline and the
// pattern report. perftrack calls it under a red gate with the first
// regressed entry's name so CI output is "regressed AND here is why" —
// and the "why" trace actually exercises the regressed machinery: a
// worksharing regression replays the AXPY worksharing region, a taskwait
// regression the nested weakwait sweep, a ready-pool / dependency /
// throttle / locality regression the flat-dependency sweep (pure
// discrete-dependency pressure, no graph replay), and anything else
// (replay entries, end-to-end workloads, unknown names) the graph-region
// sweep as before. entry may be empty; the family is its prefix up to
// the first '/'.
func Diagnose(w io.Writer, entry string, cores int, quick bool) ([]trace.Finding, error) {
	family := entry
	if i := strings.IndexByte(entry, '/'); i >= 0 {
		family = entry[:i]
	}
	mode := workloads.Mode{Workers: cores, Trace: true}
	p := perfGSParams(quick)
	var (
		label string
		iters int
		res   workloads.Result
		err   error
	)
	switch family {
	case "ws":
		axP := workloads.AxpyParams{N: 1 << 19, Calls: 8, TaskSize: 256, Alpha: 1.5, Compute: true}
		if quick {
			axP = workloads.AxpyParams{N: 1 << 15, Calls: 4, TaskSize: 128, Alpha: 1.5, Compute: true}
		}
		mode.Worksharing = nanos.WorksharingChunked
		label, iters = "axpy/worksharing", axP.Calls
		res, err = workloads.RunAxpy(mode, workloads.AxpyWorksharing, axP)
	case "wait":
		label, iters = "gauss-seidel/nest-weak", p.Iters
		res, err = workloads.RunGS(mode, workloads.GSNestWeak, p)
	case "deps", "sched", "throttle", "locality":
		label, iters = "gauss-seidel/flat-depend", p.Iters
		res, err = workloads.RunGS(mode, workloads.GSFlatDepend, p)
	default:
		label, iters = "gauss-seidel/graph", p.Iters
		res, err = workloads.RunGS(mode, workloads.GSGraph, p)
	}
	if err != nil {
		return nil, err
	}
	tr := res.Runtime.Tracer()
	findings := tr.DetectPatterns(int64(res.Wall))
	fmt.Fprintf(w, "diagnosis trace — %s (family %q), %d workers, %d iters (%.1f ms)\n",
		label, family, cores, iters, float64(res.Wall)/float64(time.Millisecond))
	fmt.Fprint(w, tr.RenderASCII(100))
	fmt.Fprint(w, trace.PatternReport(findings))
	return findings, nil
}
