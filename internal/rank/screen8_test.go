package rank

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dense"
)

// newEngineF32 is NewEngine without the int8 coarse tier — the two-stage
// float32-then-float64 path the three-tier stack is compared against.
func newEngineF32(vectors *dense.Matrix) *Engine {
	return newEngine(vectors, true, false)
}

// TestInt8TierByteIdentical pins the three-tier tentpole: across
// randomized engines — with heavy exact ties, zero rows, zero queries,
// serial and parallel scans — the int8-screened TopK/TopKBatch must be
// byte-identical to both the exact engine and the two-tier (float32)
// engine over the same vectors, for every k.
func TestInt8TierByteIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(31))
	cases := []struct{ n, dim int }{
		{50, 8},    // below screenCutoff: exact fallback, still identical
		{700, 24},  // screened, serial scan
		{2200, 16}, // screened, above scoreParallelCutoff
		{5000, 40}, // screened, parallel, more ties
	}
	for _, tc := range cases {
		docs := randomMatrix(rng, tc.n, tc.dim)
		for i := 2; i < tc.n; i += 5 {
			copy(docs.Row(i), docs.Row(i-1)) // manufacture exact score ties
		}
		for j := 0; j < tc.dim && tc.n > 9; j++ {
			docs.Set(9, j, 0) // a zero row must survive the coarse tier too
		}
		int8e := NewEngine(docs)
		f32e := newEngineF32(docs)
		exact := NewEngineExact(docs)
		if !int8e.Int8Screening() || f32e.Int8Screening() || exact.Int8Screening() {
			t.Fatal("Int8Screening() flags wrong")
		}
		q := make([]float64, tc.dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		zq := make([]float64, tc.dim)
		for _, k := range []int{1, 2, 10, 100, tc.n / 2, tc.n - 1, tc.n, tc.n + 5} {
			want := exact.TopK(q, k)
			if got := int8e.TopK(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d: int8 TopK diverges\n got %v\nwant %v",
					tc.n, tc.dim, k, got, want)
			}
			if got := f32e.TopK(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d: f32-only TopK diverges", tc.n, tc.dim, k)
			}
			if gz, wz := int8e.TopK(zq, k), exact.TopK(zq, k); !reflect.DeepEqual(gz, wz) {
				t.Fatalf("n=%d k=%d: zero-query divergence", tc.n, k)
			}
		}
		queries := randomMatrix(rng, batchBlock+7, tc.dim) // spans a ragged block
		for _, k := range []int{1, 9, tc.n} {
			want := exact.TopKBatch(queries, k)
			if got := int8e.TopKBatch(queries, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d: int8 TopKBatch diverges", tc.n, tc.dim, k)
			}
		}
	}
}

// TestInt8BracketDominates is the satellite property test: for every
// live row, the certified coarse bracket must contain the exact float64
// score — lb8 ≤ s64 ≤ ub8 — so no true candidate can ever be pruned by
// the coarse pass.
func TestInt8BracketDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 4; trial++ {
		n, dim := 300+rng.Intn(1500), 4+rng.Intn(48)
		e := NewEngine(randomMatrix(rng, n, dim))
		for qi := 0; qi < 8; qi++ {
			q := make([]float64, dim)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			qn := normalizeCopy(q)
			q8 := e.quantizeQuery(getScanScratch(n, dim), qn)
			for i := 0; i < e.docs.Rows; i++ {
				d := dense.DotI8(q8.qq8, e.mir.q8.Row(i))
				c := e.mir.scale[i] * q8.sq * float64(d)
				eps := e.mir.eps8[i]*q8.epsMul + q8.slack8
				s64 := dense.Dot(qn, e.docs.Row(i))
				if lb := c - eps; lb > s64 {
					t.Fatalf("trial %d row %d: coarse lower bound %v above exact %v", trial, i, lb, s64)
				}
				if ub := c + eps; ub < s64 {
					t.Fatalf("trial %d row %d: coarse upper bound %v below exact %v", trial, i, ub, s64)
				}
			}
		}
	}
}

// TestInt8SkipParity pins tombstone behavior on the three-tier path:
// results with rows skipped must be byte-identical to the exact engine
// with the same skip set, across single and batch entry points.
func TestInt8SkipParity(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(33))
	n, dim := 2600, 20
	docs := randomMatrix(rng, n, dim)
	for i := 3; i < n; i += 7 {
		copy(docs.Row(i), docs.Row(i-1))
	}
	int8e := NewEngine(docs)
	exact := NewEngineExact(docs)
	skip := NewSkip(n)
	for i := 0; i < n; i += 3 {
		skip.Set(i) // a third of the rows tombstoned, including ties
	}
	q := make([]float64, dim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	for _, k := range []int{1, 5, 64, n} {
		want := exact.TopKSkip(q, k, skip)
		if got := int8e.TopKSkip(q, k, skip); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: int8 TopKSkip diverges from exact", k)
		}
		for _, it := range want {
			if skip.Has(it.Doc) {
				t.Fatalf("k=%d: tombstoned row %d surfaced", k, it.Doc)
			}
		}
	}
	queries := randomMatrix(rng, 11, dim)
	gotB, _ := int8e.TopKBatchSkipWithStats(queries, 7, skip)
	wantB, _ := exact.TopKBatchSkipWithStats(queries, 7, skip)
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatal("int8 batch skip diverges from exact")
	}
}

// TestInt8ExtendParity pins that both Extend paths — the shared-tail
// claim and the losing-sibling copy — preserve the int8 tier and keep
// results byte-identical to an exact engine over the same rows, with
// the tier's stored rows still bit-equal to requantization.
func TestInt8ExtendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const dim = 16
	raw := randomMatrix(rng, 900, dim)
	root := NewEngine(raw)
	more1 := randomMatrix(rng, 300, dim)
	more2 := randomMatrix(rng, 250, dim)
	shared := root.Extend(more1)  // wins the tail claim
	sibling := root.Extend(more2) // loses the CAS, copies
	for _, tc := range []struct {
		e    *Engine
		more *dense.Matrix
	}{{shared, more1}, {sibling, more2}} {
		if !tc.e.Int8Screening() {
			t.Fatal("Extend dropped the int8 tier")
		}
		tc.e.checkMirror() // bit-exact requantization of every row
		q := make([]float64, dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		want := NewEngineExact(raw.AugmentRows(tc.more)).TopK(q, 17)
		if got := tc.e.TopK(q, 17); !reflect.DeepEqual(got, want) {
			t.Fatal("extended int8 engine diverges from exact")
		}
	}
}

// TestInt8Stats checks the ScreenStats contract of the three-tier path:
// k ≤ Candidates ≤ Promoted ≤ n, and the items match plain TopK.
func TestInt8Stats(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	e := NewEngine(randomMatrix(rng, 3000, 24))
	q := make([]float64, 24)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	items, st := e.TopKWithStats(q, 10)
	if !st.Screened {
		t.Fatal("large int8 engine did not screen")
	}
	if st.Candidates < 10 || st.Candidates > st.Promoted || st.Promoted > e.NumDocs() {
		t.Fatalf("stats out of order: k=10 cands=%d promoted=%d n=%d",
			st.Candidates, st.Promoted, e.NumDocs())
	}
	if !reflect.DeepEqual(items, e.TopK(q, 10)) {
		t.Fatal("TopKWithStats items differ from TopK")
	}
}

// TestInt8WideRowsFallBack pins the overflow guard: rows wider than
// MaxI8Dim cannot carry an int8 tier (the integer dot could exceed
// int32), so NewEngine silently keeps the two-tier path — and still
// matches exact results.
func TestInt8WideRowsFallBack(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	docs := randomMatrix(rng, 3, dense.MaxI8Dim+1)
	e := NewEngine(docs)
	if !e.Screening() || e.Int8Screening() {
		t.Fatal("wide-row engine should screen without an int8 tier")
	}
	q := make([]float64, docs.Cols)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	want := NewEngineExact(docs).TopK(q, 2)
	if got := e.TopK(q, 2); !reflect.DeepEqual(got, want) {
		t.Fatal("wide-row fallback diverges from exact")
	}
}
