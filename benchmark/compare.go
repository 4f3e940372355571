package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/stats"
)

// runFile is what --out writes: every run appended so far.
type runFile struct {
	Runs []runRecord `json:"runs"`
}

func readRunFile(path string) (runFile, error) {
	var f runFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return f, nil
}

// appendRecords adds the record to the run file at path, creating it.
func appendRecords(path string, rec runRecord) error {
	f, err := readRunFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSet is one side of a comparison: the untraced runs of one file (and
// label), by workload.
type runSet struct {
	name string
	runs map[string][]runRecord
}

func loadRunSet(path, label string) (runSet, error) {
	f, err := readRunFile(path)
	if err != nil {
		return runSet{}, err
	}
	s := runSet{name: path, runs: make(map[string][]runRecord)}
	if label != "" {
		s.name += "#" + label
	}
	for _, r := range f.Runs {
		if r.Trace || (label != "" && r.Label != label) {
			continue
		}
		s.runs[r.Workload] = append(s.runs[r.Workload], r)
	}
	return s, nil
}

func (s runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.runs[workload] {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges one (metric, workload) pair of samples against its bound.
// worse is how much b's median is worse than a's, as a share of a's. When
// the run-to-run spread exceeds the bound the pair is unresolved rather than
// unchanged, unless every run of b reads better than every run of a.
func verdict(a, b []float64, better string, bound float64) (worse, spreadRel float64, v string) {
	sa, sb := spreadOf(a), spreadOf(b)
	spreadRel = sa.rel()
	if r := sb.rel(); r > spreadRel {
		spreadRel = r
	}
	if sa.P50 == 0 {
		return 0, spreadRel, "no baseline"
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse = sign * (sb.P50 - sa.P50) / sa.P50
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spreadRel > bound && allBetter:
		return worse, spreadRel, "ok (every run better)"
	case spreadRel > bound:
		return worse, spreadRel, "unresolved"
	case worse > bound:
		return worse, spreadRel, "REGRESSION"
	}
	return worse, spreadRel, "ok"
}

// exactMismatches checks everything that must repeat exactly among runs of
// one workload and seed — digests and exact values — and that the two
// training workloads train the same tree.
func exactMismatches(sides ...runSet) []string {
	type key struct {
		workload string
		seed     int64
		smoke    bool
	}
	var out []string
	first := make(map[key]runRecord)
	where := make(map[key]string)
	for _, s := range sides {
		var names []string
		for w := range s.runs {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			for _, r := range s.runs[w] {
				k := key{w, r.Seed, r.Smoke}
				ref, seen := first[k]
				if !seen {
					first[k], where[k] = r, s.name
					continue
				}
				if r.Digest != ref.Digest {
					out = append(out, fmt.Sprintf("%s seed %d: digest %s (%s) != %s (%s)", w, r.Seed, r.Digest, s.name, ref.Digest, where[k]))
				}
				var keys []string
				for name := range ref.Exact {
					keys = append(keys, name)
				}
				sort.Strings(keys)
				for _, name := range keys {
					if got, ok := r.Exact[name]; ok && got != ref.Exact[name] {
						out = append(out, fmt.Sprintf("%s seed %d: %s = %v (%s) != %v (%s)", w, r.Seed, name, got, s.name, ref.Exact[name], where[k]))
					}
				}
			}
		}
	}
	for k, local := range first {
		if k.workload != "train_rounds" {
			continue
		}
		kd := k
		kd.workload = "train_distrib"
		if dist, ok := first[kd]; ok && dist.Digest != local.Digest {
			out = append(out, fmt.Sprintf("seed %d: train_rounds digest %s != train_distrib digest %s", k.seed, local.Digest, dist.Digest))
		}
	}
	sort.Strings(out)
	return out
}

func failedShare(runs []runRecord) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareMain implements `benchmark compare A.json B.json`: one row per
// (metric, workload) under BENCHMARK.json's bounds, the exact checks, and a
// non-zero exit on a regression or a raised failed_share.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	la := fs.String("la", "", "use only A's runs with this label")
	lb := fs.String("lb", "", "use only B's runs with this label")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-la label] [-lb label] A.json B.json")
		return 2
	}
	m, err := readManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := loadRunSet(fs.Arg(0), *la)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadRunSet(fs.Arg(1), *lb)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	bad := 0
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range m.Workloads {
		if len(a.runs[wl.Name]) == 0 || len(b.runs[wl.Name]) == 0 {
			fmt.Fprintf(w, "%-15s (no runs on one side)\n", wl.Name)
			continue
		}
		for _, e := range m.EndToEnd {
			va, vb := a.values(wl.Name, e.Name), b.values(wl.Name, e.Name)
			worse, spreadRel, v := verdict(va, vb, e.Better, e.Bound)
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.Name, e.Name, stats.Median(va), stats.Median(vb), 100*worse, 100*spreadRel, 100*e.Bound, v, len(va), len(vb))
			if v == "REGRESSION" {
				bad++
			}
		}
		fa, fb := failedShare(a.runs[wl.Name]), failedShare(b.runs[wl.Name])
		v := "ok"
		if fb > fa {
			v = "REGRESSION"
			bad++
		}
		fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %33s  %s\n", wl.Name, "failed_share", fa, fb, "", v)
	}
	for _, line := range exactMismatches(a, b) {
		fmt.Fprintf(w, "EXACT MISMATCH: %s\n", line)
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s) or mismatch(es)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no regression; every exact count and digest agrees")
	return 0
}
