// Command e2ebench is the runtime's end-to-end benchmark: it runs one of
// four seeded task programs through the public nanos API in a closed loop,
// checks every step's output against its sequential elision, and prints
// the end-to-end metrics (untraced pass) or the per-layer split (traced
// pass). See README.md in this directory.
//
//	e2ebench --workload nested-weak --seed 1 --seconds 10 --trace 0
//	e2ebench -compare base.json[,base2.json...] new.json[,new2.json...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 5

// spanCapacity bounds the traced pass's span buffer (32 bytes a span).
const spanCapacity = 1 << 19

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run writes to its result file: the result plus
// everything needed to reproduce or compare it.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    int         `json:"trace"`
	Host     fingerprint `json:"host"`
	Result   result      `json:"result"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed the inputs and shapes are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed loop, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced session")
	outDir := fs.String("out-dir", ".bench_build", "directory for the result record and the span file")
	src := fs.String("src", ".", "root of the measured source tree (for the commit in the host fingerprint)")
	compare := fs.Bool("compare", false, "compare two comma-separated lists of result records: -compare BASE NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: -compare takes two comma-separated lists of result files")
			return 2
		}
		return compareRecords(strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","), stdout, stderr)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if _, err := newWorkload(*name, *seed, false); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	host := hostFingerprint(*src)
	b := &bench{workers: runtime.GOMAXPROCS(0)}
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var spans []span
	if *traced == 0 {
		res = b.endToEnd(*name, *seed, dur, stderr)
	} else {
		res, spans = b.perLayer(*name, *seed, dur, stderr)
	}
	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%g trace=%d steps=%d failed=%d fail_ratio=%g\n",
		*name, *seed, *seconds, *traced, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(stdout, "host gomaxprocs=%d nproc=%d go=%s cpu=%q commit=%s\n",
		host.GOMAXPROCS, host.NProc, host.GoVersion, host.CPUModel, host.Commit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced, Host: host, Result: res}
	path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *traced))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if spans != nil {
		if err := writeSpans(filepath.Join(*outDir, "spans-"+*name+".tsv"), spans); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (b *bench) newPhase(seconds time.Duration) *phase {
	return &phase{seconds: seconds, minSteps: minSamples(tailQ), maxTime: 3*seconds + 10*time.Second}
}

// endToEnd sets the workload up setupReps times (all but the last set-up
// only) and then runs the timed loop with tracing off. A broken set-up
// fails every step of the run.
func (b *bench) endToEnd(name string, seed uint64, seconds time.Duration, stderr io.Writer) result {
	var setups []float64
	var setupErr error
	for i := 0; i < setupReps-1; i++ {
		w, _ := newWorkload(name, seed, false)
		ph := b.newPhase(0)
		b.session(w, ph)
		if ph.broken != nil {
			setupErr = fmt.Errorf("set-up %d: %w", i, ph.broken)
		}
		setups = append(setups, ph.setupNs)
	}
	w, _ := newWorkload(name, seed, false)
	ph := b.newPhase(seconds)
	b.session(w, ph)
	if ph.broken == nil {
		ph.broken = setupErr
	}
	reportBroken(stderr, ph)
	setups = append(setups, ph.setupNs)
	// The tail and the throughput are taken per slice of minSamples steps
	// (each slice's p90 has minTail steps beyond it), and the run reports
	// the median slice.
	n := minSamples(tailQ)
	tasksPerStep := ratio(float64(ph.ctr[cTasks]), float64(len(ph.stepNs)))
	p90 := sliceMedian(ph.stepNs, n, func(xs []float64) float64 { return percentile(xs, tailQ) })
	meanStep := sliceMedian(ph.stepNs, n, func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	})
	return result{
		Correct:   ph.failedSteps() == 0,
		Attempted: ph.attempted(),
		Failed:    ph.failedSteps(),
		Metrics: map[string]metric{
			"setup_s":       {median(setups) / 1e9, "s"},
			"step_ms_p50":   {percentile(slices.Clone(ph.stepNs), 0.5) / 1e6, "ms"},
			"step_ms_p90":   {p90 / 1e6, "ms"},
			"tasks_per_s":   {ratio(tasksPerStep, meanStep/1e9), "1/s"},
			"heap_peak_mib": {percentile(ph.heap, tailQ) / (1 << 20), "MiB"},
		},
	}
}

func reportBroken(stderr io.Writer, phs ...*phase) {
	for _, ph := range phs {
		if ph.broken != nil {
			fmt.Fprintln(stderr, "e2ebench: every step fails:", ph.broken)
		}
	}
}

// perLayer runs an untraced session (counters, allocation and GC figures,
// the untraced step median) and then a traced one (span-derived figures),
// each for half the time.
func (b *bench) perLayer(name string, seed uint64, seconds time.Duration, stderr io.Writer) (result, []span) {
	w, _ := newWorkload(name, seed, false)
	plain := b.newPhase(seconds / 2)
	b.session(w, plain)

	w, _ = newWorkload(name, seed, false)
	b.tr = newTracer(spanCapacity)
	tp := b.newPhase(seconds / 2)
	b.session(w, tp)
	spans := b.tr.recorded()
	b.tr = nil

	reportBroken(stderr, plain, tp)
	m := layerMetrics(w, plain, tp, spans, b.workers)
	failed := plain.failedSteps() + tp.failedSteps()
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted() + tp.attempted(),
		Failed:    failed,
		Metrics:   m,
	}, spans
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics: counters and Go runtime
// figures from the untraced session, span figures from the traced one,
// restricted to the traced session's timed steps.
func layerMetrics(w workload, plain, tp *phase, spans []span, workers int) map[string]metric {
	c := plain.ctr
	tasks := float64(c[cTasks])
	win := tp.windows
	var workerTime float64
	for _, x := range win {
		workerTime += float64(x.hi-x.lo) * float64(workers)
	}
	kids := children(spans)
	var submitNs, releaseNs, waitNs, bodyNs []float64
	var submitIvs, selfIvs []iv
	recordMs := 0.0
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		in := inWindows(s.start, win)
		d := float64(s.end - s.start)
		switch s.kind {
		case kSubmit, kWorksharing:
			submitIvs = append(submitIvs, iv{s.start, s.end, int(s.w0)})
			if in {
				submitNs = append(submitNs, d)
			}
		case kRelease:
			if in {
				releaseNs = append(releaseNs, d)
			}
		case kTaskwait:
			if in {
				waitNs = append(waitNs, d)
			}
		case kGraph:
			if s.step == 0 {
				recordMs = d / 1e6
			}
		case kBody, kChunk:
			segs := selfSegs(spans, kids[i], int32(i))
			selfIvs = append(selfIvs, segs...)
			if in {
				var self int64
				for _, g := range segs {
					self += g.hi - g.lo
				}
				bodyNs = append(bodyNs, float64(self))
			}
		}
	}
	// Blocking points in the untraced session: explicit Taskwait calls and
	// Graph regions, whose barrier is a taskwait.
	waits, graphs := float64(plain.waits), float64(plain.graphs)

	sum := func(xs []int64) float64 {
		var t float64
		for _, x := range xs {
			t += float64(x)
		}
		return t
	}
	submitBusy := sum(covered(submitIvs, win, workers))
	selfBusy := sum(covered(selfIvs, win, workers))
	busy := sum(covered(append(slices.Clone(selfIvs), submitIvs...), win, workers))

	tasksByKey := collectTasks(spans)
	var migrated, startedIn float64
	for _, t := range tasksByKey {
		if t.started && t.submitted && inWindows(t.start, win) {
			startedIn++
			if t.startW != t.submitW {
				migrated++
			}
		}
	}
	r2s := releaseToStart(tasksByKey, w.preds, win)

	perTask := func(i int) float64 { return ratio(float64(c[i]), tasks) }
	g := plain.goDelta
	return map[string]metric{
		"trace.overhead_ratio":         {ratio(percentile(tp.stepNs, 0.5), percentile(slices.Clone(plain.stepNs), 0.5)) - 1, "ratio"},
		"core.submit_ns_p50":           {percentile(submitNs, 0.5), "ns"},
		"core.submit_ns_p90":           {percentile(submitNs, tailQ), "ns"},
		"core.submit_busy_frac":        {ratio(submitBusy, workerTime), "ratio"},
		"core.release_to_start_ns_p50": {percentile(r2s, 0.5), "ns"},
		"core.release_to_start_ns_p90": {percentile(r2s, tailQ), "ns"},
		"core.gap_frac":                {ratio(workerTime-busy, workerTime), "ratio"},
		"sched.dispatch_gap_ns_p50":    {percentile(dispatchGaps(spans, win), 0.5), "ns"},
		"sched.migrate_ratio":          {ratio(migrated, startedIn), "ratio"},
		"deps.fragments_per_task":      {perTask(cFragments), "count"},
		"deps.links_per_task":          {perTask(cLinks), "count"},
		"deps.grants_per_task":         {perTask(cGrants), "count"},
		"deps.handovers_per_task":      {perTask(cHandovers), "count"},
		"deps.release_ns_p50":          {percentile(releaseNs, 0.5), "ns"},
		"throttle.parks_per_ktask":     {1000 * perTask(cThrParks), "count"},
		"throttle.handoffs_per_ktask":  {1000 * perTask(cThrHandoffs), "count"},
		"taskwait.ns_p50":              {percentile(waitNs, 0.5), "ns"},
		"taskwait.handoffs_per_call":   {ratio(float64(c[cTwHandoffs]), waits+graphs), "count"},
		"taskwait.parks_per_call":      {ratio(float64(c[cTwParks]), waits+graphs), "count"},
		"replay.record_ms":             {recordMs, "ms"},
		"replay.replayed_ratio":        {ratio(float64(c[cReplays]), graphs), "ratio"},
		"replay.fallbacks":             {float64(c[cFallbacks]), "count"},
		"ws.helper_chunk_ratio":        {ratio(float64(c[cWsHelperChunks]), float64(c[cWsChunks])), "ratio"},
		"ws.helper_join_us_p50":        {percentile(helperJoins(spans, win), 0.5) / 1e3, "us"},
		"ws.chunks_per_region":         {ratio(float64(c[cWsChunks]), float64(c[cWsRegions])), "count"},
		"mempool.allocs_per_task":      {ratio(float64(g.allocObjs), tasks), "count"},
		"mempool.bytes_per_task":       {ratio(float64(g.allocBytes), tasks), "B"},
		"mempool.gc_cpu_frac":          {ratio(g.gcCPU, g.totalCPU), "ratio"},
		"mempool.task_new_ratio":       {ratio(float64(c[cTaskNews]), float64(c[cTaskGets])), "ratio"},
		"mempool.deps_new_ratio":       {ratio(float64(c[cDepNews]), float64(c[cDepGets])), "ratio"},
		"body.self_frac":               {ratio(selfBusy, workerTime), "ratio"},
		"body.ns_p50":                  {percentile(bodyNs, 0.5), "ns"},
		"body.seq_step_ms_p50":         {percentile(slices.Clone(plain.seqNs), 0.5) / 1e6, "ms"},
	}
}

// helperJoins returns, for every worksharing region of a timed step, the
// time from its first chunk start to the first chunk start on another
// worker (regions no helper joined contribute nothing).
func helperJoins(spans []span, win []iv) []float64 {
	type first struct {
		t0     int64
		w0     int
		joined int64
	}
	regions := map[taskKey]*first{}
	var chunks []span
	for _, s := range spans {
		if s.kind == kChunk && s.end >= 0 && inWindows(s.start, win) {
			chunks = append(chunks, s)
		}
	}
	slices.SortFunc(chunks, func(a, b span) int { return int(a.start - b.start) })
	for _, s := range chunks {
		k := taskKey{s.step, s.task}
		r := regions[k]
		if r == nil {
			regions[k] = &first{t0: s.start, w0: int(s.w0), joined: -1}
			continue
		}
		if r.joined < 0 && int(s.w0) != r.w0 {
			r.joined = s.start - r.t0
		}
	}
	var out []float64
	for _, r := range regions {
		if r.joined >= 0 {
			out = append(out, float64(r.joined))
		}
	}
	return out
}

// compareRecords prints, per metric, the median of each side's records and
// the relative change, refusing records whose host fingerprints differ or
// that ran different workloads or passes.
func compareRecords(base, next []string, stdout, stderr io.Writer) int {
	load := func(paths []string) ([]record, error) {
		var out []record
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r record
			if err := json.Unmarshal(raw, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	a, err := load(base)
	if err == nil {
		var bs []record
		bs, err = load(next)
		a = append(a, bs...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	ref := a[0]
	for _, r := range a[1:] {
		if why := ref.Host.mismatch(r.Host); why != "" {
			fmt.Fprintf(stderr, "e2ebench: refusing to compare results from different hosts: %s\n", why)
			return 3
		}
		if r.Workload != ref.Workload || r.Trace != ref.Trace || r.Seconds != ref.Seconds {
			fmt.Fprintln(stderr, "e2ebench: refusing to compare results of different workloads, passes or run lengths")
			return 3
		}
	}
	side := func(rs []record, n string) float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Result.Metrics[n]; ok {
				v = append(v, m.Value)
			}
		}
		return median(v)
	}
	baseRecs, nextRecs := a[:len(base)], a[len(base):]
	var names []string
	for n := range ref.Result.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(stdout, "%-32s %14s %14s %9s\n", "metric", "base", "new", "change")
	for _, n := range names {
		x, y := side(baseRecs, n), side(nextRecs, n)
		fmt.Fprintf(stdout, "%-32s %14.6g %14.6g %+8.1f%%\n", n, x, y, 100*ratio(y-x, x))
	}
	return 0
}
