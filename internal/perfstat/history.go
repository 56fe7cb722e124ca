package perfstat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// The committed trajectory: BENCH_history.json is a JSON array of
// records, one per accepted perftrack run, newest last. Each record
// carries the commit, the environment, and every entry's trimmed sample
// with its CV accounting — enough for a later run to re-test
// significance against it, and for plotting pipelines to draw the
// trajectory without re-running anything.

// HistoryEntry is one benchmark entry's validated sample in a record.
type HistoryEntry struct {
	// Name identifies the measurement, e.g. "deps/sharded-pool/w4".
	Name string `json:"name"`
	// Unit is the lower-is-better unit of Values, e.g. "ns/op".
	Unit string `json:"unit"`
	// Values are the trimmed measurements the gate tests against.
	Values []float64 `json:"values"`
	// Mean, CV summarize Values (denormalized for plotting pipelines).
	Mean float64 `json:"mean"`
	CV   float64 `json:"cv"`
	// Reruns counts extra measurements the CV validation spent; Stable
	// is false when the rerun budget ran out above MaxCV.
	Reruns int  `json:"reruns,omitempty"`
	Stable bool `json:"stable"`
}

// Record is one perftrack run.
type Record struct {
	// Commit is the git revision the run measured (or "unknown").
	Commit string `json:"commit"`
	// Time is the RFC3339 collection timestamp.
	Time string `json:"time"`
	// Host describes the environment: go version, GOMAXPROCS and CPU
	// model (HostCPUModel; empty in records written before the field).
	Go       string `json:"go"`
	MaxProcs int    `json:"maxprocs"`
	CPUModel string `json:"cpu_model,omitempty"`
	// Quick marks reduced-op smoke collections, which are never
	// comparable to full runs.
	Quick bool `json:"quick,omitempty"`
	// Entries are the validated samples, sorted by name.
	Entries []HistoryEntry `json:"entries"`
}

// Entry returns the named entry and whether it exists.
func (r *Record) Entry(name string) (HistoryEntry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return HistoryEntry{}, false
}

// Sort orders the entries by name, the canonical on-disk order.
func (r *Record) Sort() {
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Name < r.Entries[j].Name })
}

// LoadHistory reads the record array from path. A missing file is an
// empty history, not an error.
func LoadHistory(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("perfstat: parsing %s: %w", path, err)
	}
	return recs, nil
}

// LastComparable returns the newest record taken like run — the same
// Quick class, GOMAXPROCS, Go version and CPU model — or nil. A reduced-op
// smoke run must never gate against a full run, nor a run at one width,
// on one toolchain or on one CPU against another. A record with no CPU
// model (written before the field existed) names no host, so it never
// matches.
func LastComparable(recs []Record, run Record) *Record {
	for i := len(recs) - 1; i >= 0; i-- {
		r := &recs[i]
		if r.Quick == run.Quick && r.MaxProcs == run.MaxProcs && r.Go == run.Go &&
			r.CPUModel != "" && r.CPUModel == run.CPUModel {
			return r
		}
	}
	return nil
}

// AppendHistory appends rec to the array at path, creating the file if
// needed. The write is atomic (temp file + rename) so an interrupted run
// cannot corrupt the committed trajectory.
func AppendHistory(path string, rec Record) error {
	recs, err := LoadHistory(path)
	if err != nil {
		return err
	}
	rec.Sort()
	recs = append(recs, rec)
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// HostCPUModel names the CPU this process runs on: the first "model name"
// of /proc/cpuinfo, or GOARCH where that file is missing or names none,
// so a record written by perftrack always names its host.
func HostCPUModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), ":")
		if v = strings.TrimSpace(v); strings.TrimSpace(k) == "model name" && v != "" {
			return v
		}
	}
	return runtime.GOARCH
}
