package harness

import (
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// TestWatchdogOverhead gates the watchdog's cost on the dispatch path:
// the flat-dependency Gauss-Seidel sweep (the one the
// workload/gs-flat/watchdog-* perf entries track) must run within 1% of
// the watchdog-off time with the watchdog on. The heartbeat is two
// worker-private atomic stores per dispatch and the monitor samples a
// handful of atomics eight times per stall bound, so 1% is generous
// headroom — but wall clocks on shared CI hosts jitter, so the test
// interleaves on/off passes, takes the minimum of each (minimum-of-N
// discards scheduler noise, which is strictly additive), and retries the
// whole comparison a few times before declaring a regression.
//
// Three things keep the comparison about the watchdog:
//   - Width 4, but never more workers than CPUs. With more workers than
//     CPUs each monitor wake-up reorders the oversubscribed run queues
//     and the ratio measures that, not the heartbeat.
//   - Every pass starts from a collected heap (outside the timing). A
//     sweep allocates 1–1.4 MiB against the collector's 4 MiB minimum
//     goal, so otherwise a GC cycle lands inside every third or fourth
//     sweep, and which side pays it follows the heap's phase, not the
//     watchdog.
//   - The pair order alternates, so neither side always runs second: in
//     off/off runs on a 2-CPU host the second sweep of a fixed-order pair
//     read about 2% slower.
//
// A sweep here takes a few milliseconds, less than the monitor's default
// sampling period (WatchdogBound/8), so the gate covers the per-dispatch
// heartbeats and the monitor's start and stop; the sampling itself costs
// one wake-up per period (see the defaults in core/watchdog.go).
func TestWatchdogOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio gate; skipped in -short")
	}
	p := workloads.GSParams{N: 128, TS: 16, Iters: 8, Compute: true}
	run := func(on bool) float64 {
		runtime.GC()
		res, err := workloads.RunGS(workloads.Mode{Workers: min(4, runtime.NumCPU()), Watchdog: on}, workloads.GSFlatDepend, p)
		if err != nil {
			t.Fatalf("sweep failed (watchdog=%v): %v", on, err)
		}
		return float64(res.Wall)
	}
	const passes = 7
	const limit = 1.01
	var ratio float64
	for attempt := 0; attempt < 4; attempt++ {
		minOff, minOn := 0.0, 0.0
		for i := 0; i < passes; i++ {
			// Interleave so slow host phases (noisy neighbors) hit both
			// sides equally, and alternate which side goes first.
			for _, on := range [2]bool{i%2 == 1, i%2 == 0} {
				m := &minOff
				if on {
					m = &minOn
				}
				if d := run(on); *m == 0 || d < *m {
					*m = d
				}
			}
		}
		ratio = minOn / minOff
		if ratio < limit {
			return
		}
		t.Logf("attempt %d: watchdog on/off ratio %.4f >= %.2f, retrying", attempt, ratio, limit)
	}
	t.Fatalf("watchdog overhead ratio %.4f, want < %.2f (heartbeats must stay under 1%% on the flat-dependency sweep)", ratio, limit)
}
