package rank

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dense"
)

// scanEngines builds the engines the scan tests sweep: both first tiers ×
// {no index, index over every row, index over a prefix with the rest
// appended by Extend}, all over the same rows, plus the exact reference.
// prefix is how many rows the "ivf+tail" engines index.
func scanEngines(docs *dense.Matrix, prefix int) (exact *Engine, screened map[string]*Engine) {
	head := docs.Slice(0, prefix, 0, docs.Cols)
	tail := docs.Slice(prefix, docs.Rows, 0, docs.Cols)
	cfg := IVFConfig{MinRows: 1}
	screened = map[string]*Engine{}
	for _, tier := range []struct {
		name string
		ctor func(*dense.Matrix) *Engine
	}{{"int8", NewEngine}, {"f32", newEngineF32}} {
		screened[tier.name+"/flat"] = tier.ctor(docs)
		screened[tier.name+"/ivf"] = tier.ctor(docs).BuildIVF(cfg)
		screened[tier.name+"/ivf+tail"] = tier.ctor(head).BuildIVF(cfg).Extend(tail)
	}
	return NewEngineExact(docs), screened
}

// tiedMatrix is randomMatrix with every fifth row a copy of its
// predecessor, so exact score ties cross span, cell and skip boundaries.
func tiedMatrix(rng *rand.Rand, n, dim int) *dense.Matrix {
	docs := randomMatrix(rng, n, dim)
	for i := 2; i < n; i += 5 {
		copy(docs.Row(i), docs.Row(i-1))
	}
	return docs
}

func itemsBitEqual(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestBatchStatsEqualSingle pins that a batch is the single-query scan
// fanned across queries: row i of TopKBatchSkipWithStats equals
// TopKSkipWithStats of query i in items and in every ScreenStats field,
// so lsi_scanned_rows_total does not depend on which endpoint served the
// query.
func TestBatchStatsEqualSingle(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(211))
	n, dim := 1500, 16
	docs := tiedMatrix(rng, n, dim)
	_, engines := scanEngines(docs, 1100)
	queries := randomMatrix(rng, 9, dim)
	for name, e := range engines {
		for _, skip := range []Skip{nil, skipEvery(n, 10)} {
			items, stats := e.TopKBatchSkipWithStats(queries, 7, skip)
			for i := range items {
				want, wantSt := e.TopKSkipWithStats(queries.Row(i), 7, skip)
				if !wantSt.Screened {
					t.Fatalf("%s: query %d not screened; the case tests nothing", name, i)
				}
				if !itemsBitEqual(items[i], want) {
					t.Fatalf("%s skip=%v query %d: batch items %v, single %v", name, skip != nil, i, items[i], want)
				}
				if stats[i] != wantSt {
					t.Fatalf("%s skip=%v query %d: batch stats %+v, single %+v", name, skip != nil, i, stats[i], wantSt)
				}
			}
		}
	}
}

// TestScanParallelTailParity covers the combination the span fan-out of
// the un-indexed range makes new: an indexed engine whose Extend-ed tail
// is above scoreParallelCutoff, at GOMAXPROCS 1 and 4, with and without
// Skip, on both first tiers — bit-identical to NewEngineExact (scores,
// ids, tie order) and, because a gathered row's slot does not depend on
// the worker count, with identical stats at both settings.
func TestScanParallelTailParity(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	n, dim, prefix := 4200, 16, 1200
	if (n-prefix)*dim < scoreParallelCutoff {
		t.Fatal("tail below the fan-out cutoff; the case tests nothing")
	}
	docs := tiedMatrix(rng, n, dim)
	exact, engines := scanEngines(docs, prefix)
	queries := randomMatrix(rng, 6, dim)
	copy(queries.Row(0), docs.Row(prefix+10)) // aimed at a skipped tail row
	serial := map[string]ScreenStats{}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, name := range []string{"int8/ivf+tail", "f32/ivf+tail", "int8/flat", "f32/flat"} {
			e := engines[name]
			for si, skip := range []Skip{nil, skipEvery(n, 10)} {
				for qi := 0; qi < queries.Rows; qi++ {
					for _, k := range []int{1, 10, 300} {
						got, st := e.TopKSkipWithStats(queries.Row(qi), k, skip)
						want := exact.TopKSkip(queries.Row(qi), k, skip)
						if !itemsBitEqual(got, want) {
							t.Fatalf("procs=%d %s skip=%v query %d k=%d: diverges from exact", procs, name, skip != nil, qi, k)
						}
						key := fmt.Sprintf("%s/%d/%d/%d", name, si, qi, k)
						if procs == 1 {
							serial[key] = st
						} else if st != serial[key] {
							t.Fatalf("procs=%d %s: stats %+v, serial %+v", procs, key, st, serial[key])
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestScanStatsInvariants is the counter property: whenever a query is
// Screened, k ≤ Candidates ≤ ScannedRows ≤ live rows; an int8 engine
// promotes a superset of what it rescores (Candidates ≤ Promoted ≤
// ScannedRows) and a float32-first engine promotes nothing.
func TestScanStatsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for trial := 0; trial < 6; trial++ {
		n, dim := 1100+rng.Intn(1500), 16+rng.Intn(24)
		var docs *dense.Matrix
		if trial%2 == 0 {
			docs = tiedMatrix(rng, n, dim)
		} else {
			docs = clusteredMatrix(rng, n, dim, 12, 0.05)
		}
		_, engines := scanEngines(docs, n/2+rng.Intn(n/2))
		for name, e := range engines {
			for _, skip := range []Skip{nil, skipEvery(n, 2+rng.Intn(9))} {
				live := n - skip.CountUpTo(n)
				q := randomMatrix(rng, 1, dim).Row(0)
				for _, k := range []int{1, 1 + rng.Intn(50), live - 1} {
					for _, nprobe := range []int{0, 1 + rng.Intn(4)} {
						_, st := e.TopKProbeSkip(q, k, nprobe, skip)
						if !st.Screened {
							t.Fatalf("%s n=%d dim=%d k=%d: not screened", name, n, dim, k)
						}
						if !(k <= st.Candidates && st.Candidates <= st.ScannedRows && st.ScannedRows <= live) {
							t.Fatalf("%s k=%d live=%d: want k ≤ Candidates ≤ ScannedRows ≤ live, got %+v", name, k, live, st)
						}
						if e.Int8Screening() {
							if !(st.Candidates <= st.Promoted && st.Promoted <= st.ScannedRows) {
								t.Fatalf("%s: want Candidates ≤ Promoted ≤ ScannedRows, got %+v", name, st)
							}
						} else if st.Promoted != 0 {
							t.Fatalf("%s: float32-first engine promoted %d rows", name, st.Promoted)
						}
					}
				}
			}
		}
	}
}
