package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is the provenance header of every output and trace file.
type environment struct {
	Workload   string  `json:"workload"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	TimedS     float64 `json:"timed_s"`
	Smoke      bool    `json:"smoke"`
	Trace      bool    `json:"trace"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA resolves HEAD by reading .git directly (no child process). The
// pipeline's checkout is not a repository, so "unknown" is a normal value.
func gitSHA() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if sha := headOf(filepath.Join(dir, ".git")); sha != "" {
			return sha
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func headOf(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// benchProcs is the run protocol's GOMAXPROCS and client count: the
// machine's cores, at most 4, so the load generator never oversubscribes
// the cores it shares with the server.
func benchProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}
