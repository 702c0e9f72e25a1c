// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the §5 application results, as structured text reports.
// Each experiment returns a Result with formatted lines (what cmd/lsibench,
// the exhibit runner, prints) and named metrics (what the tests and
// EXPERIMENTS.md assert against the paper's claims). Elapsed times in a
// report are context, not a performance record: those come from bench/
// and the go test -bench tables.
package experiments

import (
	"fmt"
	"sort"
)

// Result is one regenerated table/figure.
type Result struct {
	ID      string
	Title   string
	Paper   string // what the paper reports, for side-by-side comparison
	Lines   []string
	Metrics map[string]float64
}

func (r *Result) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(seed int64) (*Result, error)
}

var registry []Runner

func register(id, title string, run func(seed int64) (*Result, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns the registered experiments in registration (paper) order.
func All() []Runner {
	out := make([]Runner, len(registry))
	copy(out, registry)
	return out
}

// IDs lists every experiment id.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, r := range registry {
		ids[i] = r.ID
	}
	return ids
}

// Lookup finds an experiment by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// sortedMetricNames aids deterministic printing of metric maps.
func sortedMetricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Render formats a result for terminal output.
func Render(r *Result) string {
	out := fmt.Sprintf("=== %s — %s ===\n", r.ID, r.Title)
	if r.Paper != "" {
		out += "paper: " + r.Paper + "\n"
	}
	for _, l := range r.Lines {
		out += l + "\n"
	}
	if len(r.Metrics) > 0 {
		out += "metrics:\n"
		for _, n := range sortedMetricNames(r.Metrics) {
			out += fmt.Sprintf("  %-40s %12.6g\n", n, r.Metrics[n])
		}
	}
	return out
}
