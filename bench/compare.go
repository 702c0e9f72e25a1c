package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// loadResults reads a result file: one run per line.
func loadResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict is one workload × metric cell of a comparison.
type verdict string

const (
	within     verdict = "within"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies one bound to two sets of values of one metric. b is
// worse when its median is worse than a's by more than bound × |a's
// median|. When either set's quartile spread is wider than the bound the
// medians cannot tell, and the cell is unresolved — unless the sets do
// not overlap at all, in which case every run agrees on the direction.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	ma, mb := median(a), median(b)
	// loss > 0: b is worse than a.
	loss := mb - ma
	if higherBetter {
		loss = ma - mb
	}
	limit := bound * math.Abs(ma)
	if math.Max(quartileSpread(a), quartileSpread(b)) > bound {
		allBetter, allWorse := minOf(b) > maxOf(a), maxOf(b) < minOf(a)
		if !higherBetter {
			allBetter, allWorse = allWorse, allBetter
		}
		switch {
		case allBetter:
			return within
		case allWorse && loss > limit:
			return worse
		}
		return unresolved
	}
	if loss > limit {
		return worse
	}
	return within
}

// compareFiles prints one line per workload × end-to-end metric present
// in both files and reports whether any cell is worse.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	collect := func(rs []runResult, workload, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Correct {
				out = append(out, mv.Value)
			}
		}
		return out
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "median(a)", "median(b)", "iqr(a)%", "iqr(b)%", "bound%", "verdict")
	for _, wl := range m.Workloads {
		for _, d := range m.EndToEnd {
			va, vb := collect(a, wl.Name, d.Name), collect(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 || d.Bound == nil {
				continue
			}
			v := judge(va, vb, d.Better == "higher", *d.Bound)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %8.2f %8.2f %7.1f  %s (n=%d,%d)\n",
				wl.Name, d.Name, median(va), median(vb),
				100*quartileSpread(va), 100*quartileSpread(vb), 100**d.Bound, v, len(va), len(vb))
		}
	}
	return anyWorse, nil
}
