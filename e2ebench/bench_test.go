package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func tinyPhase() *phase {
	return &phase{seconds: 30 * time.Millisecond, minSteps: 3, maxTime: 10 * time.Second}
}

// TestTinyPass runs every workload at tiny sizes, untraced and traced, and
// checks that every step matches its reference and the traced session
// yields every per-layer metric BENCHMARK.json names.
func TestTinyPass(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b := &bench{workers: 2}
			w, err := newWorkload(name, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			plain := tinyPhase()
			b.session(w, plain)
			if plain.broken != nil || plain.failed != 0 {
				t.Fatalf("untraced: broken=%v failed=%d of %d", plain.broken, plain.failed, len(plain.stepNs))
			}
			if len(plain.stepNs) < 3 || plain.ctr[cTasks] == 0 {
				t.Fatalf("untraced: %d steps, %d tasks", len(plain.stepNs), plain.ctr[cTasks])
			}
			w, _ = newWorkload(name, 7, true)
			b.tr = newTracer(1 << 16)
			traced := tinyPhase()
			b.session(w, traced)
			spans := b.tr.recorded()
			b.tr = nil
			if traced.broken != nil || traced.failed != 0 {
				t.Fatalf("traced: broken=%v failed=%d", traced.broken, traced.failed)
			}
			for _, s := range spans {
				if s.end < s.start {
					t.Fatalf("unfinished span %+v", s)
				}
			}
			m := layerMetrics(w, plain, traced, spans, b.workers)
			if got, want := sortedKeys(m), spec.names("per_layer"); !slices.Equal(got, want) {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json names %v", got, want)
			}
			if m["body.self_frac"].Value <= 0 || m["core.submit_ns_p50"].Value <= 0 {
				t.Fatalf("span metrics empty: %+v", m)
			}
		})
	}
}

// corrupting flips one output element before every comparison, so every
// step must count as failed.
type corrupting struct{ workload }

func (c corrupting) verify() bool {
	switch w := c.workload.(type) {
	case *nestedWeak:
		w.y[len(w.y)/2] += 1
	case *gsGraph:
		w.a[len(w.a)/2] += 1
	case *spawnChain:
		w.state[0] ^= 1
	case *wsAxpy:
		w.y[len(w.y)/2] += 1
	}
	return c.workload.verify()
}

func TestCorruptedOutputFails(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, _ := newWorkload(name, 3, true)
			ph := tinyPhase()
			(&bench{workers: 2}).session(corrupting{w}, ph)
			// A corrupted warm-up breaks the whole session; either way no
			// step may pass.
			if ph.failedSteps() != ph.attempted() || ph.attempted() == 0 {
				t.Fatalf("failed %d of %d steps, want all", ph.failedSteps(), ph.attempted())
			}
		})
	}
}

// TestSelfTimeWithLentToken builds a body A on worker 0 that waits in a
// Taskwait from 30 to 80 and resumes on worker 1; while it waits, worker 0
// runs body B (35–70), which submits a task (40–45).
func TestSelfTimeWithLentToken(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, step: 0, task: 0, w0: 0, w1: 1, kind: kBody},     // 0: A
		{start: 30, end: 80, parent: 0, step: 0, task: -1, w0: 0, w1: 1, kind: kTaskwait}, // 1: A's wait
		{start: 35, end: 70, parent: -1, step: 0, task: 1, w0: 0, w1: 0, kind: kBody},     // 2: B
		{start: 40, end: 45, parent: 2, step: 0, task: 2, w0: 0, w1: 0, kind: kSubmit},    // 3: B submits
		{start: 0, end: 100, parent: -1, step: 0, task: -1, w0: -1, w1: -1, kind: kStep},
	}
	kids := children(spans)
	a := selfSegs(spans, kids[0], 0)
	if want := []iv{{0, 30, 0}, {80, 100, 1}}; !slices.Equal(a, want) {
		t.Fatalf("A self segments %v, want %v", a, want)
	}
	bs := selfSegs(spans, kids[2], 2)
	if want := []iv{{35, 40, 0}, {45, 70, 0}}; !slices.Equal(bs, want) {
		t.Fatalf("B self segments %v, want %v", bs, want)
	}
	win := []iv{{0, 100, -1}}
	self := covered(append(a, bs...), win, 2)
	if want := []int64{60, 20}; !slices.Equal(self, want) {
		t.Fatalf("self time per worker %v, want %v", self, want)
	}
	// Body self time plus the Submit span: worker 0 is covered 0–30 and
	// 35–70, so its gap is 35; worker 1 only 80–100, a gap of 80.
	busy := covered(append(append(a, bs...), iv{40, 45, 0}), win, 2)
	if want := []int64{65, 20}; !slices.Equal(busy, want) {
		t.Fatalf("covered per worker %v, want %v", busy, want)
	}
	// Windows clip: only 50–100 counts.
	if got := covered(append(a, bs...), []iv{{50, 100, -1}}, 2); !slices.Equal(got, []int64{20, 20}) {
		t.Fatalf("clipped coverage %v, want [20 20]", got)
	}
	// Worker 0 became free when A's Taskwait lent it out (30) and B
	// started at 35: one dispatch gap of 5. A's resume on worker 1 is not
	// a body start, so no other sample exists.
	if got := dispatchGaps(spans, win); !slices.Equal(got, []float64{5}) {
		t.Fatalf("dispatch gaps %v, want [5]", got)
	}
}

func TestReleaseToStart(t *testing.T) {
	spans := []span{
		{start: 0, end: 10, parent: -1, step: 0, task: 0, w0: 0, w1: 0, kind: kSubmit},
		{start: 10, end: 20, parent: -1, step: 0, task: 1, w0: 0, w1: 0, kind: kSubmit},
		{start: 12, end: 50, parent: 0, step: 0, task: 0, w0: 1, w1: 1, kind: kBody},
		{start: 58, end: 60, parent: 1, step: 0, task: 1, w0: 0, w1: 0, kind: kBody},
	}
	// Task 1 depends on task 0: ready at 50 (its predecessor's end), not at
	// 20 (its own Submit return). Task 0 starts 2 after its Submit returned.
	preds := func(_, task int32) []int32 {
		if task == 1 {
			return []int32{0}
		}
		return nil
	}
	tasks := collectTasks(spans)
	got := releaseToStart(tasks, preds, []iv{{0, 100, -1}})
	slices.Sort(got)
	if want := []float64{2, 8}; !slices.Equal(got, want) {
		t.Fatalf("release-to-start %v, want %v", got, want)
	}
	if tasks[taskKey{0, 0}].startW == tasks[taskKey{0, 0}].submitW {
		t.Fatal("task 0 ran on worker 1, submitted from worker 0: want a migration")
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Fatalf("p50 of 1..100 = %v, want 50", got)
	}
	if beyond(100, 0.9) != 10 || beyond(99, 0.9) != 9 {
		t.Fatalf("beyond(100)=%d beyond(99)=%d, want 10 and 9", beyond(100, 0.9), beyond(99, 0.9))
	}
	if got := minSamples(tailQ); got != 100 {
		t.Fatalf("minSamples(p90) = %d, want 100", got)
	}
	if got := minSamples(0.99); got != 1000 {
		t.Fatalf("minSamples(p99) = %d, want 1000", got)
	}
	if percentile(nil, 0.5) != 0 || median([]float64{3, 1, 2, 4}) != 2.5 {
		t.Fatal("empty percentile or even-count median wrong")
	}
	// Slices [1..100] and [101..200]; the short tail 201..250 is dropped.
	run := make([]float64, 250)
	for i := range run {
		run[i] = float64(i + 1)
	}
	p90 := func(xs []float64) float64 { return percentile(xs, tailQ) }
	if got := sliceMedian(run, 100, p90); got != 140 {
		t.Fatalf("median of slice p90s = %v, want 140 (90 and 190)", got)
	}
	if got := sliceMedian(run[:50], 100, p90); got != 45 {
		t.Fatalf("short run: %v, want its own p90, 45", got)
	}
	if run[0] != 1 || run[249] != 250 {
		t.Fatal("sliceMedian reordered its input")
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	host := fingerprint{GOMAXPROCS: 2, NProc: 2, GoVersion: "go1.24.0", CPUModel: "cpu", Commit: "a"}
	write := func(name string, h fingerprint, v float64) string {
		p := filepath.Join(dir, name)
		rec := record{Workload: "ws-axpy", Seconds: 1, Host: h,
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"step_ms_p50": {v, "ms"}}}}
		if err := writeJSON(p, rec); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", host, 2)
	other := host
	other.Commit = "b"
	next := write("next.json", other, 1)
	var out, errb bytes.Buffer
	if code := compareRecords([]string{base}, []string{next}, &out, &errb); code != 0 {
		t.Fatalf("same host, two commits: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "-50.0%") {
		t.Fatalf("comparison output lacks the change:\n%s", out.String())
	}
	other.GOMAXPROCS = 1
	far := write("far.json", other, 1)
	errb.Reset()
	if code := compareRecords([]string{base}, []string{far}, &out, &errb); code != 3 || !strings.Contains(errb.String(), "GOMAXPROCS") {
		t.Fatalf("different GOMAXPROCS: exit %d (%s), want a refusal", code, errb.String())
	}
}

// TestEndToEndNames checks the untraced pass reports exactly the
// end-to-end metrics BENCHMARK.json names.
func TestEndToEndNames(t *testing.T) {
	spec := loadSpec(t)
	res := (&bench{workers: 2}).endToEnd("spawn-chain", 1, 20*time.Millisecond, io.Discard)
	if got, want := sortedKeys(res.Metrics), spec.names("end_to_end"); !slices.Equal(got, want) {
		t.Fatalf("end-to-end metrics %v, BENCHMARK.json names %v", got, want)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minSamples(tailQ) {
		t.Fatalf("result %+v", res)
	}
}

type benchSpec map[string]json.RawMessage

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s benchSpec) names(key string) []string {
	var ms []struct{ Name string }
	if err := json.Unmarshal(s[key], &ms); err != nil {
		panic(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	slices.Sort(out)
	return out
}

func sortedKeys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
