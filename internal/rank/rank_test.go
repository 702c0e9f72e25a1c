package rank

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dense"
)

// sortSelect is the reference implementation TopK must match exactly:
// materialize everything, full sort under the ranking order, truncate.
func sortSelect(scores []float64, ids []int, k int) []Item {
	all := make([]Item, len(scores))
	for i, s := range scores {
		doc := i
		if ids != nil {
			doc = ids[i]
		}
		all[i] = Item{Doc: doc, Score: s}
	}
	Sort(all)
	if k > len(all) {
		k = len(all)
	}
	if k < 0 {
		k = 0
	}
	return all[:k]
}

// TestTopKMatchesSortProperty is the parity property test: across random
// score vectors — with heavy deliberate ties from quantization — heap
// selection must be byte-identical to the sort-based ranking, for every
// k, with and without an id mapping, serial and parallel.
func TestTopKMatchesSortProperty(t *testing.T) {
	old := runtime.GOMAXPROCS(4) // exercise the sharded path even on 1 CPU
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		if trial%7 == 0 {
			n = selectParallelCutoff + rng.Intn(5000) // force the parallel shards
		}
		scores := make([]float64, n)
		levels := 1 + rng.Intn(8) // few distinct values → many exact ties
		for i := range scores {
			scores[i] = float64(rng.Intn(levels)) / float64(levels)
		}
		var ids []int
		if trial%2 == 1 {
			ids = rng.Perm(n * 2)[:n] // non-identity, non-monotone doc ids
		}
		for _, k := range []int{0, 1, 2, 3, n / 2, n - 1, n, n + 10} {
			got := TopK(scores, ids, k)
			want := sortSelect(scores, ids, k)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d k=%d: heap top-k diverges from sort\n got %v\nwant %v",
					trial, n, k, got, want)
			}
		}
	}
}

func TestTopKAllTied(t *testing.T) {
	scores := make([]float64, 100)
	got := TopK(scores, nil, 7)
	for i, it := range got {
		if it.Doc != i || it.Score != 0 {
			t.Fatalf("tied scores must select lowest doc ids in order: %v", got)
		}
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *dense.Matrix {
	m := dense.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestEngineScoresMatchCosine pins the cached-norm scan to the textbook
// cosine within floating-point slack.
func TestEngineScoresMatchCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs := randomMatrix(rng, 300, 12)
	// A zero document row must score 0, matching the cosine convention.
	for j := 0; j < 12; j++ {
		docs.Set(17, j, 0)
	}
	e := NewEngine(docs)
	q := make([]float64, 12)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	scores := e.Scores(q)
	for i := 0; i < docs.Rows; i++ {
		want := dense.Cosine(q, docs.Row(i))
		if d := scores[i] - want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("doc %d: engine %v cosine %v", i, scores[i], want)
		}
	}
	if scores[17] != 0 {
		t.Fatalf("zero document scored %v", scores[17])
	}
	zq := make([]float64, 12)
	for _, s := range e.Scores(zq) {
		if s != 0 {
			t.Fatal("zero query must score 0 everywhere")
		}
	}
}

// TestEngineTopKMatchesScores: the fused score+select path must equal
// selecting over the materialized score vector byte-for-byte.
func TestEngineTopKMatchesScores(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 50, 3000} {
		docs := randomMatrix(rng, n, 16)
		// Duplicate some rows to manufacture exact score ties.
		for i := 2; i < n; i += 5 {
			copy(docs.Row(i), docs.Row(i-1))
		}
		e := NewEngine(docs)
		q := make([]float64, 16)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for _, k := range []int{1, 5, n} {
			got := e.TopK(q, k)
			want := TopK(e.Scores(q), nil, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: fused top-k diverges\n got %v\nwant %v", n, k, got, want)
			}
		}
	}
}

// TestEngineBatchMatchesSingle: the gemm-scored batch path must be
// byte-identical to per-query TopK (same normalization, same dot order,
// same selection).
func TestEngineBatchMatchesSingle(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(3))
	docs := randomMatrix(rng, 2500, 20)
	e := NewEngine(docs)
	queries := randomMatrix(rng, batchBlock+11, 20) // spans two gemm blocks
	batch := e.TopKBatch(queries, 8)
	if len(batch) != queries.Rows {
		t.Fatalf("batch returned %d results for %d queries", len(batch), queries.Rows)
	}
	for r := 0; r < queries.Rows; r++ {
		single := e.TopK(queries.Row(r), 8)
		if !reflect.DeepEqual(batch[r], single) {
			t.Fatalf("query %d: batch diverges from single\n got %v\nwant %v", r, batch[r], single)
		}
	}
}

func TestEngineExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	all := randomMatrix(rng, 120, 10)
	base := NewEngine(all.Slice(0, 80, 0, 10))
	ext := base.Extend(all.Slice(80, 120, 0, 10))
	full := NewEngine(all)
	if ext.NumDocs() != 120 {
		t.Fatalf("extended engine covers %d docs", ext.NumDocs())
	}
	if base.NumDocs() != 80 {
		t.Fatal("Extend mutated the base engine")
	}
	q := make([]float64, 10)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	if !reflect.DeepEqual(ext.Scores(q), full.Scores(q)) {
		t.Fatal("extended engine scores differ from a fresh build")
	}
}

// TestEngineExtendDenormalNormRows folds in rows whose norm is itself
// subnormal — [5e-324, …] — on every tier: each cached row comes out a
// finite unit vector, and ranking stays byte-identical to the exact
// engine with the folded rows scored like their normal-range directions.
func TestEngineExtendDenormalNormRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 6
	base := randomMatrix(rng, 600, dim)
	tiny := dense.NewFromRows([][]float64{
		{5e-324, 0, 0, 0, 0, 0},
		{5e-324, -5e-324, 0, 5e-324, 0, 0},
		{0, 1e-320, 0, 0, -3e-322, 5e-324},
	})
	all := dense.New(base.Rows+tiny.Rows, dim)
	copy(all.Data, base.Data)
	copy(all.Data[len(base.Data):], tiny.Data)
	exact := NewEngineExact(base).Extend(tiny)
	for name, e := range map[string]*Engine{
		"exact": exact,
		"int8":  NewEngine(base).Extend(tiny),
		"f32":   newEngineF32(base).Extend(tiny),
		"ivf":   ivfEngine(base, IVFConfig{Clusters: 20}).Extend(tiny),
	} {
		for i := base.Rows; i < e.NumDocs(); i++ {
			if n := dense.Norm2(e.docs.Row(i)); math.IsNaN(n) || math.Abs(n-1) > 1e-15 {
				t.Fatalf("%s: folded row %d cached as %v (norm %v)", name, i, e.docs.Row(i), n)
			}
		}
		for qi := 0; qi < tiny.Rows+4; qi++ {
			q := randomMatrix(rng, 1, dim).Row(0)
			if qi < tiny.Rows {
				copy(q, tiny.Row(qi))
				dense.ScaleVec(0x1p1000, q) // the row's direction at ordinary magnitude
			}
			for _, k := range []int{1, 5, 40} {
				got, want := e.TopK(q, k), exact.TopK(q, k)
				if !itemsBitEqual(got, want) {
					t.Fatalf("%s query %d k=%d: %v, exact %v", name, qi, k, got, want)
				}
				if qi < tiny.Rows && (got[0].Doc != base.Rows+qi || math.Abs(got[0].Score-1) > 1e-15) {
					t.Fatalf("%s: query along folded row %d ranks %v first", name, base.Rows+qi, got[0])
				}
			}
		}
	}
	if !reflect.DeepEqual(exact.Scores(all.Row(0)), NewEngineExact(all).Scores(all.Row(0))) {
		t.Fatal("extended engine scores differ from a fresh build")
	}
}

// TestEngineExtendChainShares pins the cheap-append contract: the first
// Extend of a fresh engine copies (a Clone has no spare capacity), but
// once the chain owns an allocation with headroom, the next Extend claims
// the tail and shares prefix storage with its parent instead of copying.
func TestEngineExtendChainShares(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	all := randomMatrix(rng, 60, 8)
	e0 := NewEngine(all.Slice(0, 40, 0, 8))
	e1 := e0.Extend(all.Slice(40, 50, 0, 8)) // copy path, allocates headroom
	e2 := e1.Extend(all.Slice(50, 60, 0, 8)) // must reuse e1's tail
	if &e2.docs.Data[0] != &e1.docs.Data[0] {
		t.Fatal("second extend did not share the chain's backing allocation")
	}
	if e2.claimed != e1.claimed {
		t.Fatal("second extend did not stay on the chain's claim token")
	}
	full := NewEngine(all)
	q := make([]float64, 8)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	if !reflect.DeepEqual(e2.Scores(q), full.Scores(q)) {
		t.Fatal("chained engine scores differ from a fresh build")
	}
	// Parents still serve their own prefixes untouched.
	if !reflect.DeepEqual(e1.Scores(q), NewEngine(all.Slice(0, 50, 0, 8)).Scores(q)) {
		t.Fatal("extending mutated the parent engine's rows")
	}
	if e0.NumDocs() != 40 || e1.NumDocs() != 50 || e2.NumDocs() != 60 {
		t.Fatalf("chain lengths %d/%d/%d", e0.NumDocs(), e1.NumDocs(), e2.NumDocs())
	}
}

// TestEngineExtendSiblingsDoNotAlias extends the same parent twice: only
// one sibling may win the spare capacity, and the loser must fall back to
// a private copy rather than clobbering the winner's rows.
func TestEngineExtendSiblingsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomMatrix(rng, 50, 8)
	rowsA := randomMatrix(rng, 10, 8)
	rowsB := randomMatrix(rng, 10, 8)
	parent := NewEngine(base.Slice(0, 40, 0, 8)).Extend(base.Slice(40, 50, 0, 8))
	a := parent.Extend(rowsA) // claims the tail
	b := parent.Extend(rowsB) // claim CAS must fail → copy
	if &a.docs.Data[0] != &parent.docs.Data[0] {
		t.Fatal("first sibling should have claimed the parent's spare capacity")
	}
	if &b.docs.Data[0] == &parent.docs.Data[0] {
		t.Fatal("second sibling reused claimed capacity")
	}
	q := make([]float64, 8)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	wantA := NewEngine(base.AugmentRows(rowsA)).Scores(q)
	wantB := NewEngine(base.AugmentRows(rowsB)).Scores(q)
	gotA := a.Scores(q)
	gotB := b.Scores(q)
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatal("first sibling corrupted")
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatal("second sibling corrupted")
	}
	// Extending b (which owns a fresh allocation with headroom) must not
	// disturb a either.
	c := b.Extend(rowsA)
	if !reflect.DeepEqual(a.Scores(q), wantA) || c.NumDocs() != 70 {
		t.Fatal("extending the copied sibling disturbed the winner")
	}
}

// partsBitEqual fails unless two engines' derived arrays — the float32
// mirror, the int8 tier, every residual and bound, and the cluster
// index's cells, centroids and radii — are bit-identical.
func partsBitEqual(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	g, w := got.Parts(), want.Parts()
	f64 := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values, want %d", label, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %x, want %x", label, name, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
	f64("docs", got.docs.Data, want.docs.Data)
	f64("eps", g.Eps, w.Eps)
	f64("maxEps", []float64{g.MaxEps}, []float64{w.MaxEps})
	f64("scale", g.Scale, w.Scale)
	f64("eps8", g.Eps8, w.Eps8)
	f64("maxEps8", []float64{g.MaxEps8}, []float64{w.MaxEps8})
	if len(g.Mirror) != len(w.Mirror) || len(g.Q8) != len(w.Q8) {
		t.Fatalf("%s: tier sizes %d/%d, want %d/%d", label, len(g.Mirror), len(g.Q8), len(w.Mirror), len(w.Q8))
	}
	for i := range g.Mirror {
		if math.Float32bits(g.Mirror[i]) != math.Float32bits(w.Mirror[i]) {
			t.Fatalf("%s: mirror[%d] differs", label, i)
		}
	}
	if !reflect.DeepEqual(g.Q8, w.Q8) {
		t.Fatalf("%s: int8 tier differs", label)
	}
	if (g.IVF == nil) != (w.IVF == nil) {
		t.Fatalf("%s: index present = %v, want %v", label, g.IVF != nil, w.IVF != nil)
	}
	if g.IVF != nil {
		f64("ivf cents", g.IVF.Cents, w.IVF.Cents)
		f64("ivf radius", g.IVF.Radius, w.IVF.Radius)
		gi, wi := *g.IVF, *w.IVF
		gi.Cents, gi.Radius, wi.Cents, wi.Radius = nil, nil, nil, nil
		if !reflect.DeepEqual(gi, wi) {
			t.Fatalf("%s: index differs\ngot  %+v\nwant %+v", label, gi, wi)
		}
	}
}

// TestNewEngineIndependentOfWorkers: the normalization and the mirror
// fill fan out over the cores, and every derived array and bound must be
// bit-identical whatever the worker count — one worker is the serial
// reference. The matrix is past scoreParallelCutoff so the fan-out runs.
func TestNewEngineIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	vecs := randomMatrix(rng, 1201, 64)
	if len(vecs.Data) < scoreParallelCutoff {
		t.Fatalf("%d elements do not reach the fan-out cutoff %d", len(vecs.Data), scoreParallelCutoff)
	}
	build := func(procs int) (*Engine, *Engine) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return NewEngine(vecs), NewEngineExact(vecs)
	}
	serial, serialExact := build(1)
	checkMirrorBitEqual(t, serial)
	maxEps, maxEps8 := 0.0, 0.0
	for i := range serial.mir.eps {
		maxEps = math.Max(maxEps, serial.mir.eps[i])
		maxEps8 = math.Max(maxEps8, serial.mir.eps8[i])
	}
	if serial.mir.maxEps != maxEps || serial.mir.maxEps8 != maxEps8 {
		t.Fatalf("bounds %v/%v, row maxima %v/%v", serial.mir.maxEps, serial.mir.maxEps8, maxEps, maxEps8)
	}
	for _, procs := range []int{2, 3} {
		par, parExact := build(procs)
		checkMirrorBitEqual(t, par)
		partsBitEqual(t, fmt.Sprintf("GOMAXPROCS %d", procs), par, serial)
		partsBitEqual(t, fmt.Sprintf("GOMAXPROCS %d exact", procs), parExact, serialExact)
	}
}

// TestEngineExtendCopyPathMatchesBuild pins the copy path of Extend: it
// copies the old rows' mirror, int8 rows, residuals and bounds instead of
// deriving them again, so the result must be bit-identical to NewEngine
// over the same rows — from a freshly built parent, from a sibling that
// lost the claim, and from an engine rebuilt from its rows with a saved
// cell membership attached (whose index Extend carries along), with a
// zero row and a subnormal-norm row among the new rows and the rows of
// largest residual (which set maxEps and maxEps8) among the old ones.
func TestEngineExtendCopyPathMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const dim = 16
	all := randomMatrix(rng, 90, dim)
	clear(all.Row(7))
	for j := range all.Row(61) {
		all.Row(61)[j] = 5e-324
	}
	// Residuals are per-row, so swapping the rows of largest float32 and
	// int8 residual to the front leaves both bounds to the old rows.
	swap := func(a, b int) {
		ra, rb := all.Row(a), all.Row(b)
		for j := range ra {
			ra[j], rb[j] = rb[j], ra[j]
		}
	}
	want := NewEngine(all)
	argmax := func(xs []float64) int {
		best := 0
		for i, x := range xs {
			if x > xs[best] {
				best = i
			}
		}
		return best
	}
	swap(0, argmax(want.mir.eps))
	swap(1, argmax(NewEngine(all).mir.eps8))
	want = NewEngine(all)
	if want.mir.eps[0] != want.mir.maxEps || want.mir.eps8[1] != want.mir.maxEps8 {
		t.Fatal("fixture: the largest residuals are not on rows 0 and 1")
	}

	fresh := NewEngine(all.Slice(0, 50, 0, dim)).Extend(all.Slice(50, 90, 0, dim))
	parent := NewEngine(all.Slice(0, 30, 0, dim)).Extend(all.Slice(30, 50, 0, dim))
	winner := parent.Extend(all.Slice(50, 55, 0, dim))
	loser := parent.Extend(all.Slice(50, 90, 0, dim))
	if &winner.docs.Data[0] != &parent.docs.Data[0] || &loser.docs.Data[0] == &parent.docs.Data[0] {
		t.Fatal("expected one claiming sibling and one copying sibling")
	}
	src := NewEngine(all.Slice(0, 50, 0, dim)).BuildIVF(IVFConfig{MinRows: 1})
	restored, err := NewEngine(all.Slice(0, 50, 0, dim)).IVFFromParts(src.Parts().IVF, IVFConfig{MinRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	fromParts := restored.Extend(all.Slice(50, 90, 0, dim))

	for _, c := range []struct {
		label string
		e     *Engine
		want  *Engine
	}{
		{"fresh parent", fresh, want},
		{"losing sibling", loser, want},
		{"restored parent", fromParts, want.WithIVFIndex(src.ivf)},
	} {
		if !c.e.Int8Screening() {
			t.Fatalf("%s: lost its int8 tier", c.label)
		}
		checkMirrorBitEqual(t, c.e)
		partsBitEqual(t, c.label, c.e, c.want)
	}
	// An exact-only engine stays exact-only along the copy path.
	if ex := NewEngineExact(all.Slice(0, 50, 0, dim)).Extend(all.Slice(50, 90, 0, dim)); ex.Screening() {
		t.Fatal("exact engine grew a mirror on extend")
	}
}

// TestEngineConcurrentReaders hammers one engine from many goroutines —
// engines are immutable, so -race must stay quiet.
func TestEngineConcurrentReaders(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(5))
	e := NewEngine(randomMatrix(rng, 4000, 10))
	q := make([]float64, 10)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	want := e.TopK(q, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := e.TopK(q, 5); !reflect.DeepEqual(got, want) {
					panic("nondeterministic top-k")
				}
			}
		}()
	}
	wg.Wait()
}
