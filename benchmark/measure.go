package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// This file is the benchmark's measurement discipline, kept in one place so
// every workload measures the same way:
//
//   - work per pass is fixed by a sizing table (never "run for N seconds"):
//     --seconds only decides how many whole passes are measured, so every
//     count normalised per op repeats exactly and both sides of a later
//     comparison do identical work per pass;
//   - runtime.GC() runs before each timed region;
//   - warm-up is part of set-up, discarded and counted there;
//   - every timing is recorded with its minimum, quartiles and n; rates use
//     the fastest pass of fixed work (see unitTotals), counts and set-up the
//     median;
//   - GOMAXPROCS is pinned to 1 and recorded (see pinProcs);
//   - temp dirs live under benchmark/out and are removed.

// sizing fixes the work of one pass of every workload.
type sizing struct {
	steadySimS float64 // simulated seconds per steady_mix / remy_exec (a)(b)(c) rep
	steadyReps int     // repetitions per steady_mix variant per pass (rep 0 is cold)
	remyReps   int     // repetitions per remy_exec variant per pass
	dcSimS     float64 // simulated seconds per remy_exec (d) rep
	dcSenders  int

	cellSimS    float64 // simulated seconds per campaign repetition
	cellReps    int
	gridLoads   []float64
	gridRTTs    []float64
	gridRates   []float64
	gridBuffers []float64

	trainRounds    int
	trainSpecimens int
	trainSimS      float64
	heldOut        int // held-out specimens scored for train_score

	setupReps  int     // set-up repetitions behind the setup_s median
	minPasses  int     // measured passes regardless of --seconds
	probeScale float64 // multiplies every micro-probe's iteration count
	coldPairs  int     // cold/warm session pairs sampled per spec in the traced run
}

// fullSizing is what BENCHMARK.json's numbers are measured with.
var fullSizing = sizing{
	steadySimS: 30, steadyReps: 33, remyReps: 17,
	dcSimS: 0.1, dcSenders: 32,
	cellSimS: 5, cellReps: 2,
	gridLoads:   []float64{0.3, 0.6},
	gridRTTs:    []float64{40, 120},
	gridRates:   []float64{0.5, 2},
	gridBuffers: []float64{100, 1000},
	trainRounds: 1, trainSpecimens: 8, trainSimS: 1, heldOut: 32,
	setupReps: 3, minPasses: 3, probeScale: 1, coldPairs: 5,
}

// smokeSizing drives every code path once in well under ten seconds; the
// tests and `-smoke` use it. Its numbers mean nothing.
var smokeSizing = sizing{
	steadySimS: 1, steadyReps: 3, remyReps: 3,
	dcSimS: 0.05, dcSenders: 16,
	cellSimS: 1, cellReps: 2,
	gridLoads:   []float64{0.5},
	gridRTTs:    []float64{60},
	gridRates:   []float64{1},
	gridBuffers: []float64{200},
	trainRounds: 1, trainSpecimens: 2, trainSimS: 0.5, heldOut: 2,
	setupReps: 1, minPasses: 2, probeScale: 0.02, coldPairs: 1,
}

// pinProcs pins GOMAXPROCS to 1, so every rate is throughput per core. The
// workloads keep their two workers (goroutines time-slicing one core), so
// the concurrent code paths still run and results are unchanged; what two
// cores buy is measured separately by the traced run's
// scenario.runner_scaling_2w.
//
// One core is a steadiness requirement, not a preference: on a 2-vCPU
// sandbox, a run that keeps two threads busy leaves the VM in a throttled
// state for about half a minute, and whatever runs next is 25-35 % slower
// (steady_mix: 1.65 Mpkt/s on a rested box, 1.17 right after a two-thread
// run, 1.70 right after a one-thread run). With ISSUE 11's min(2, nproc)
// every run's speed depended on what ran before it.
func pinProcs() int {
	runtime.GOMAXPROCS(1)
	return 1
}

// spread is the sample behind one reported number: its size, minimum and
// quartiles.
type spread struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func spreadOf(xs []float64) spread {
	return spread{N: len(xs), Min: stats.Quantile(xs, 0), P25: stats.Quantile(xs, 0.25), P50: stats.Median(xs), P75: stats.Quantile(xs, 0.75)}
}

// rel returns the interquartile range as a share of the median.
func (s spread) rel() float64 {
	if s.P50 == 0 {
		return 0
	}
	return math.Abs((s.P75 - s.P25) / s.P50)
}

// region is one timed region: wall clock plus the allocator's deltas.
type region struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// timed collects garbage, then runs fn between two MemStats snapshots. The
// snapshots stop the world for microseconds, which is why they bracket whole
// passes and never single repetitions.
func timed(fn func() error) (region, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return region{
		wall:    wall,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
	}, err
}

// digest is FNV-1a over the integer result fields, report bytes and tree
// JSON a workload produced. The simulator is deterministic, so a change that
// only makes it faster must leave every digest unchanged.
//
// It is written out rather than taken from hash/fnv because it runs inside
// the timed passes: hash.Hash64.Write takes a slice through an interface, so
// every integer folded would be a heap allocation charged to allocs_per_op.
type digest struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() *digest { return &digest{h: fnvOffset} }

func (d *digest) byte(b byte) { d.h = (d.h ^ uint64(b)) * fnvPrime }

func (d *digest) int(v int64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digest) bytes(p []byte) {
	d.int(int64(len(p)))
	for _, b := range p {
		d.byte(b)
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// repoRoot walks up from the working directory to the directory holding
// go.mod: the benchmark runs from the checkout root under the driver and from
// benchmark/ under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod above the working directory")
		}
		dir = parent
	}
}

// outDir returns benchmark/out, creating it. Traces, run files and temp dirs
// all stay inside it, so a run writes nothing outside its checkout.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// environment is recorded with every run so a number can be traced to the
// machine and build that produced it.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readEnvironment(procs int) environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown", GOMAXPROCS: procs}
	if root, err := repoRoot(); err == nil {
		env.Commit = readCommit(root)
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					env.CPU = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return env
}

// readCommit resolves HEAD by reading .git directly (no subprocess); a
// checkout that is not a git repository reports "unknown".
func readCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if data, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if strings.HasSuffix(line, " "+name) {
				return strings.Fields(line)[0]
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's high-water resident set from /proc (0 where
// that does not exist).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
