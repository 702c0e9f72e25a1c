package rank

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dense"
)

// TestTwoStageByteIdentical is the pinning test for the tentpole: across
// randomized engines — small and large, serial and parallel, heavy exact
// ties from duplicated rows, zero rows, zero queries — the screened
// TopK/TopKBatch must return results byte-identical to an exact-only
// engine over the same vectors, for every k.
func TestTwoStageByteIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(21))
	cases := []struct{ n, dim int }{
		{50, 8},                 // below screenCutoff: exact fallback, still identical
		{700, 24},               // screened, serial scan
		{2200, 16},              // screened, above scoreParallelCutoff
		{5000, 40},              // screened, parallel, more ties
		{screenCutoff/4 + 3, 4}, // exactly around the cutoff boundary
	}
	for _, tc := range cases {
		docs := randomMatrix(rng, tc.n, tc.dim)
		for i := 2; i < tc.n; i += 5 {
			copy(docs.Row(i), docs.Row(i-1)) // manufacture exact score ties
		}
		for j := 0; j < tc.dim && tc.n > 9; j++ {
			docs.Set(9, j, 0) // a zero row must survive screening too
		}
		screened := NewEngine(docs)
		exact := NewEngineExact(docs)
		if !screened.Screening() || exact.Screening() {
			t.Fatal("Screening() flags wrong")
		}
		q := make([]float64, tc.dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		zq := make([]float64, tc.dim)
		for _, k := range []int{1, 2, 10, 100, tc.n / 2, tc.n - 1, tc.n, tc.n + 5} {
			got := screened.TopK(q, k)
			want := exact.TopK(q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d: screened TopK diverges\n got %v\nwant %v",
					tc.n, tc.dim, k, got, want)
			}
			if gz, wz := screened.TopK(zq, k), exact.TopK(zq, k); !reflect.DeepEqual(gz, wz) {
				t.Fatalf("n=%d k=%d: zero-query divergence", tc.n, k)
			}
		}
		queries := randomMatrix(rng, batchBlock+7, tc.dim) // spans a ragged block
		for _, k := range []int{1, 9, tc.n} {
			got := screened.TopKBatch(queries, k)
			want := exact.TopKBatch(queries, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d: screened TopKBatch diverges", tc.n, tc.dim, k)
			}
		}
	}
}

// TestTwoStageStats checks the ScreenStats contract: a large engine
// reports Screened with a candidate count in [k, n], a small one reports
// the exact path, and the items match TopK either way.
func TestTwoStageStats(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	big := NewEngine(randomMatrix(rng, 3000, 24))
	q := make([]float64, 24)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	items, st := big.TopKWithStats(q, 10)
	if !st.Screened {
		t.Fatal("large engine did not screen")
	}
	if st.Candidates < 10 || st.Candidates > big.NumDocs() {
		t.Fatalf("candidate count %d outside [10, %d]", st.Candidates, big.NumDocs())
	}
	if !reflect.DeepEqual(items, big.TopK(q, 10)) {
		t.Fatal("TopKWithStats items differ from TopK")
	}
	small := NewEngine(randomMatrix(rng, 20, 4))
	if _, st := small.TopKWithStats(q[:4], 3); st.Screened {
		t.Fatal("small engine screened below the cutoff")
	}
	exact := NewEngineExact(randomMatrix(rng, 3000, 24))
	if _, st := exact.TopKWithStats(q, 10); st.Screened {
		t.Fatal("exact engine reported screening")
	}
}

// checkMirrorBitEqual asserts every mirror row is exactly the float32
// conversion of its float64 row, bit for bit, and that the stored
// per-row bound dominates a freshly computed residual.
func checkMirrorBitEqual(t *testing.T, e *Engine) {
	t.Helper()
	if e.mir == nil {
		t.Fatal("engine lost its mirror")
	}
	e.checkMirror() // the engine's own invariant must agree

	if e.mir.docs.Rows != e.docs.Rows || e.mir.docs.Cols != e.docs.Cols || len(e.mir.eps) != e.docs.Rows {
		t.Fatalf("mirror shape %dx%d eps=%d vs docs %dx%d",
			e.mir.docs.Rows, e.mir.docs.Cols, len(e.mir.eps), e.docs.Rows, e.docs.Cols)
	}
	for i := 0; i < e.docs.Rows; i++ {
		r64, r32 := e.docs.Row(i), e.mir.docs.Row(i)
		for j, v := range r64 {
			if math.Float32bits(r32[j]) != math.Float32bits(float32(v)) {
				t.Fatalf("row %d col %d: mirror %x != converted %x",
					i, j, math.Float32bits(r32[j]), math.Float32bits(float32(v)))
			}
		}
		if resid := dense.ResidualF32(r64, r32); e.mir.eps[i] < resid {
			t.Fatalf("row %d: stored bound %v below residual %v", i, e.mir.eps[i], resid)
		}
		if e.mir.eps[i] > e.mir.maxEps {
			t.Fatalf("row %d: eps %v above maxEps %v", i, e.mir.eps[i], e.mir.maxEps)
		}
	}
}

// TestMirrorExtendProperty is the satellite property test: any
// interleaving of Extend calls — shared-tail claims and losing-sibling
// copies, racing from multiple goroutines — must leave every produced
// engine's mirror rows bit-equal to the float32 conversion of its
// float64 rows, and its screened results byte-identical to exact
// scoring. Run under -race by `make check`/`make stress`-adjacent CI.
func TestMirrorExtendProperty(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(23))
	const dim = 12
	for trial := 0; trial < 8; trial++ {
		rootRaw := randomMatrix(rng, 30+rng.Intn(100), dim)
		root := NewEngine(rootRaw)
		// Each worker grows its own chain from a shared ancestor: the first
		// Extend of a node wins the tail claim, every racing sibling loses
		// the CAS and copies — both paths exercised concurrently.
		const workers = 4
		batches := make([][]*dense.Matrix, workers)
		for w := 0; w < workers; w++ {
			n := 3 + rng.Intn(4)
			for b := 0; b < n; b++ {
				batches[w] = append(batches[w], randomMatrix(rng, 1+rng.Intn(30), dim))
			}
		}
		chains := make([][]*Engine, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cur := root
				for _, more := range batches[w] {
					cur = cur.Extend(more)
					chains[w] = append(chains[w], cur)
				}
			}(w)
		}
		wg.Wait()
		q := make([]float64, dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		checkMirrorBitEqual(t, root)
		for w := 0; w < workers; w++ {
			raw := rootRaw
			for bi, e := range chains[w] {
				raw = raw.AugmentRows(batches[w][bi])
				checkMirrorBitEqual(t, e)
				k := 1 + rng.Intn(e.NumDocs())
				// An exact engine over the same raw rows normalizes each row
				// exactly once, just like the chain did — byte-comparable.
				if !reflect.DeepEqual(e.TopK(q, k), NewEngineExact(raw).TopK(q, k)) {
					t.Fatalf("trial %d worker %d batch %d: chained engine diverges from exact", trial, w, bi)
				}
			}
		}
	}
}

// TestExtendExactStaysExact pins that exact-only chains never grow a
// mirror: both Extend paths must preserve the opt-out.
func TestExtendExactStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	e := NewEngineExact(randomMatrix(rng, 40, 6))
	e1 := e.Extend(randomMatrix(rng, 10, 6))  // copy path
	e2 := e1.Extend(randomMatrix(rng, 10, 6)) // shared-tail path
	if e1.mir != nil || e2.mir != nil {
		t.Fatal("exact chain grew a mirror")
	}
	if e2.NumDocs() != 60 {
		t.Fatalf("chain covers %d docs", e2.NumDocs())
	}
}

// TestScreenBufReuse pins that steady-state screening does not allocate
// the O(n) score buffer on every query.
func TestScreenBufReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates per-op allocations past any honest budget")
	}
	rng := rand.New(rand.NewSource(25))
	e := NewEngine(randomMatrix(rng, 4000, 32))
	q := make([]float64, 32)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	e.TopK(q, 10) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 40
	for i := 0; i < runs; i++ {
		e.TopK(q, 10)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	// One query allocates qn, q32, selectors, goroutine closures — a few
	// KB — but must not re-allocate the 16 KB float32 score buffer.
	if budget := float64(4 * e.NumDocs() / 2); perOp > budget {
		t.Fatalf("screened TopK allocates %.0f B/op; want < %.0f (score buffer not pooled)", perOp, budget)
	}
}
