package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the host and code a result was measured on.
// Results are comparable only when everything but the commit matches: a
// comparison is meant to set two commits side by side, never two hosts.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostFingerprint(src string) fingerprint {
	return fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commitOf(src),
	}
}

// mismatch names the first host property a and b differ in, or returns ""
// when results measured under them may be compared.
func (a fingerprint) mismatch(b fingerprint) string {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel)
	}
	return ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf returns the git commit checked out at src, read from .git
// without running git, or — in a checkout that is not a git repository —
// a digest of the Go sources and module files under src.
func commitOf(src string) string {
	if head, err := os.ReadFile(filepath.Join(src, ".git", "HEAD")); err == nil {
		h := strings.TrimSpace(string(head))
		ref, isRef := strings.CutPrefix(h, "ref: ")
		if !isRef {
			return h
		}
		if b, err := os.ReadFile(filepath.Join(src, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(src, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
					return hash
				}
			}
		}
	}
	return sourceDigest(src)
}

func sourceDigest(src string) string {
	h := sha256.New()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != src && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(src, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
