package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runRecord identifies a run so a noisy figure can be explained rather
// than hidden: what was built, on how many CPUs, from which seed, and how
// much of the host's CPU the hypervisor stole during the timed window.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Started    string  `json:"started"`
	StealShare float64 `json:"env_steal_share"`
	WallS      float64 `json:"window_wall_s"`
	CPUS       float64 `json:"window_cpu_s"`
}

func newRunRecord(cfg runConfig) *runRecord {
	return &runRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.window.Seconds(),
		Traced:     cfg.traced,
		GitSHA:     gitSHA("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// finish copies the timed window's host figures into the record.
func (r *runRecord) finish(win *window) {
	r.StealShare = win.steal
	r.WallS = win.wall.Seconds()
	r.CPUS = win.cpu.Seconds()
}

// gitSHA resolves HEAD of the git checkout at dir without running git;
// "unknown" when dir is not a checkout (the benchmark also runs from
// exported trees).
func gitSHA(dir string) string {
	gitDir := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
