package rank

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dense"
)

// clusteredMatrix draws rows around nc well-separated unit centers with
// small spread — data where cluster pruning has something to prune,
// unlike isotropic gaussians whose cluster radii approach √2.
func clusteredMatrix(rng *rand.Rand, n, dim, nc int, spread float64) *dense.Matrix {
	centers := randomMatrix(rng, nc, dim)
	for i := 0; i < nc; i++ {
		dense.Normalize(centers.Row(i))
	}
	m := dense.New(n, dim)
	for i := 0; i < n; i++ {
		c := centers.Row(rng.Intn(nc))
		row := m.Row(i)
		for j := range row {
			row[j] = c[j] + spread*rng.NormFloat64()
		}
	}
	return m
}

// ivfEngine builds a screened engine over docs with a cluster index
// attached regardless of collection size (MinRows 1).
func ivfEngine(docs *dense.Matrix, cfg IVFConfig) *Engine {
	if cfg.MinRows == 0 {
		cfg.MinRows = 1
	}
	return NewEngine(docs).BuildIVF(cfg)
}

// TestIVFByteIdentical is the pinning test for the tentpole: across
// randomized engines — clustered and isotropic data, exact duplicate
// rows (tie-heavy scores), zero rows, k from 1 past n — the
// cluster-pruned TopK/TopKBatch must return results byte-identical to an
// exact-only engine over the same vectors.
func TestIVFByteIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(61))
	cases := []struct {
		n, dim    int
		clustered bool
	}{
		{50, 8, false},    // below screenCutoff: exact fallback, still identical
		{900, 24, true},   // clustered, serial scan
		{2600, 16, true},  // clustered, above scoreParallelCutoff
		{3000, 24, false}, // isotropic: bounds rarely prune, must still be exact
		{5000, 40, true},  // clustered, parallel, heavy ties
	}
	for _, tc := range cases {
		var docs *dense.Matrix
		if tc.clustered {
			docs = clusteredMatrix(rng, tc.n, tc.dim, 20, 0.05)
		} else {
			docs = randomMatrix(rng, tc.n, tc.dim)
		}
		for i := 2; i < tc.n; i += 5 {
			copy(docs.Row(i), docs.Row(i-1)) // manufacture exact score ties
		}
		for j := 0; j < tc.dim && tc.n > 9; j++ {
			docs.Set(9, j, 0) // a zero row must survive cluster pruning too
		}
		pruned := ivfEngine(docs, IVFConfig{})
		exact := NewEngineExact(docs)
		if tc.n >= screenCutoff/tc.dim {
			if _, _, ok := pruned.IVF(); !ok {
				t.Fatalf("n=%d: engine carries no index", tc.n)
			}
		}
		q := make([]float64, tc.dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		zq := make([]float64, tc.dim)
		for _, k := range []int{1, 2, 10, 100, tc.n / 2, tc.n - 1, tc.n, tc.n + 5} {
			got := pruned.TopK(q, k)
			want := exact.TopK(q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d: IVF TopK diverges\n got %v\nwant %v",
					tc.n, tc.dim, k, got, want)
			}
			if gz, wz := pruned.TopK(zq, k), exact.TopK(zq, k); !reflect.DeepEqual(gz, wz) {
				t.Fatalf("n=%d k=%d: zero-query divergence", tc.n, k)
			}
		}
		queries := randomMatrix(rng, batchBlock+7, tc.dim) // spans a ragged block
		for _, k := range []int{1, 9, tc.n} {
			got := pruned.TopKBatch(queries, k)
			want := exact.TopKBatch(queries, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d: IVF TopKBatch diverges", tc.n, tc.dim, k)
			}
		}
	}
}

// TestIVFBoundsDominate is the satellite property test: for every cell,
// the certified upper bound computed at query time must dominate the
// exact float64 score of every member, across random queries — the
// inequality the skip rule rests on.
func TestIVFBoundsDominate(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial, docs := range []*dense.Matrix{
		clusteredMatrix(rng, 1500, 20, 12, 0.08),
		randomMatrix(rng, 1200, 16),
	} {
		e := ivfEngine(docs, IVFConfig{Clusters: 25})
		idx := e.ivf
		if idx == nil {
			t.Fatal("no index")
		}
		covered := 0
		for _, mem := range idx.members {
			covered += len(mem)
		}
		if covered != idx.rows || idx.rows != e.NumDocs() {
			t.Fatalf("trial %d: members cover %d of %d rows", trial, covered, idx.rows)
		}
		ubSlack := ivfUBSlack(e.Dim())
		for qi := 0; qi < 20; qi++ {
			q := make([]float64, e.Dim())
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			qn := normalizeCopy(q)
			for c, mem := range idx.members {
				ub := dense.Dot(qn, idx.cents.Row(c)) + idx.radius[c] + ubSlack
				for _, i := range mem {
					if s := dense.Dot(qn, e.docs.Row(int(i))); s > ub {
						t.Fatalf("trial %d query %d cell %d: member %d scores %v above bound %v",
							trial, qi, c, i, s, ub)
					}
				}
			}
		}
	}
}

// TestIVFExtendParity pins exactness against a stale index: racing
// Extend interleavings — shared-tail claims and losing-sibling copies —
// leave the original cluster index attached while the unclustered tail
// grows, and every produced engine must stay byte-identical to exact
// scoring. Run under -race by make race-hot.
func TestIVFExtendParity(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(63))
	const dim = 12
	for trial := 0; trial < 6; trial++ {
		rootRaw := clusteredMatrix(rng, 1400+rng.Intn(300), dim, 10, 0.06)
		root := ivfEngine(rootRaw, IVFConfig{})
		if root.ivf == nil {
			t.Fatal("root carries no index")
		}
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
		for w := 0; w < workers; w++ {
			raw := rootRaw
			for bi, e := range chains[w] {
				raw = raw.AugmentRows(batches[w][bi])
				if e.ivf != root.ivf {
					t.Fatalf("trial %d worker %d batch %d: index did not propagate", trial, w, bi)
				}
				k := 1 + rng.Intn(e.NumDocs())
				if !reflect.DeepEqual(e.TopK(q, k), NewEngineExact(raw).TopK(q, k)) {
					t.Fatalf("trial %d worker %d batch %d: stale-index engine diverges from exact",
						trial, w, bi)
				}
				// Rebuilding mid-chain shrinks the tail to zero; results must
				// not move.
				if bi == len(chains[w])-1 {
					re := e.BuildIVF(IVFConfig{MinRows: 1})
					if _, rows, ok := re.IVF(); !ok || rows != re.NumDocs() {
						t.Fatalf("trial %d worker %d: rebuild left %d of %d rows unclustered",
							trial, w, re.NumDocs()-rows, re.NumDocs())
					}
					if !reflect.DeepEqual(re.TopK(q, k), e.TopK(q, k)) {
						t.Fatalf("trial %d worker %d: rebuild moved results", trial, w)
					}
				}
			}
		}
	}
}

// TestIVFDeterministic pins reproducible builds: same rows and seed give
// identical member lists, centroids, and radii; a different seed may
// partition differently but results stay exact either way.
func TestIVFDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	docs := clusteredMatrix(rng, 2000, 16, 15, 0.07)
	e := NewEngine(docs)
	a := e.BuildIVFIndex(IVFConfig{MinRows: 1})
	b := e.BuildIVFIndex(IVFConfig{MinRows: 1})
	if !reflect.DeepEqual(a.members, b.members) {
		t.Fatal("same seed produced different partitions")
	}
	if !reflect.DeepEqual(a.radius, b.radius) || !reflect.DeepEqual(a.cents.Data, b.cents.Data) {
		t.Fatal("same seed produced different certificates")
	}
	c := e.BuildIVFIndex(IVFConfig{MinRows: 1, Seed: 777})
	q := make([]float64, 16)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	exact := NewEngineExact(docs).TopK(q, 10)
	if !reflect.DeepEqual(e.WithIVFIndex(a).TopK(q, 10), exact) ||
		!reflect.DeepEqual(e.WithIVFIndex(c).TopK(q, 10), exact) {
		t.Fatal("seed choice changed exact results")
	}
}

// TestIVFStats checks the extended ScreenStats contract on the pruned
// path: cluster counts are consistent, scanned rows cover at least the
// candidates, and clustered queries scan fewer rows than the collection
// holds.
func TestIVFStats(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	docs := clusteredMatrix(rng, 4000, 24, 16, 0.04)
	e := ivfEngine(docs, IVFConfig{})
	// Query near a document so the best cluster seeds a tight threshold.
	q := append([]float64(nil), docs.Row(7)...)
	items, st := e.TopKWithStats(q, 10)
	if !st.Screened || st.ClustersTotal == 0 {
		t.Fatalf("pruned path did not report clusters: %+v", st)
	}
	if st.ClustersScanned < 1 || st.ClustersScanned > st.ClustersTotal {
		t.Fatalf("scanned %d of %d clusters", st.ClustersScanned, st.ClustersTotal)
	}
	if st.ScannedRows < st.Candidates || st.ScannedRows > e.NumDocs() {
		t.Fatalf("scanned rows %d outside [%d, %d]", st.ScannedRows, st.Candidates, e.NumDocs())
	}
	if st.ScannedRows >= e.NumDocs() {
		t.Fatalf("clustered query scanned every row (%d): pruning never engaged", st.ScannedRows)
	}
	if len(items) != 10 {
		t.Fatalf("got %d items", len(items))
	}
	if !reflect.DeepEqual(items, NewEngineExact(docs).TopK(q, 10)) {
		t.Fatal("pruned items diverge from exact")
	}
}

// TestTopKProbe exercises the approximate mode: any nprobe returns k
// well-formed results that are the exact top-k of the probed subset —
// so nprobe ≥ clusters is byte-identical to exact, and small nprobe
// still achieves high recall on clustered data where the certified
// ordering sends the query to the right cells first.
func TestTopKProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	docs := clusteredMatrix(rng, 4000, 24, 16, 0.04)
	// Cell count matching the data's true centers, so one probed cell can
	// plausibly hold a whole neighborhood (the default √n would split
	// each center across ~4 cells and dilute single-probe recall).
	e := ivfEngine(docs, IVFConfig{Clusters: 16})
	nc, _, _ := e.IVF()
	const k = 10
	exact := NewEngineExact(docs)
	hits, total := 0, 0
	for qi := 0; qi < 30; qi++ {
		q := append([]float64(nil), docs.Row(rng.Intn(e.NumDocs()))...)
		want := exact.TopK(q, k)
		full, _ := e.TopKProbe(q, k, nc)
		if !reflect.DeepEqual(full, want) {
			t.Fatalf("query %d: nprobe=all diverges from exact", qi)
		}
		got, st := e.TopKProbe(q, k, 1)
		if len(got) != k {
			t.Fatalf("query %d: nprobe=1 returned %d of %d items", qi, len(got), k)
		}
		if st.ClustersScanned > 1 {
			t.Fatalf("query %d: nprobe=1 scanned %d clusters", qi, st.ClustersScanned)
		}
		inWant := make(map[int]bool, k)
		for _, it := range want {
			inWant[it.Doc] = true
		}
		for _, it := range got {
			total++
			if inWant[it.Doc] {
				hits++
			}
		}
	}
	// Queries sit on documents and clusters are tight, so even one probed
	// cell recovers most of the true top-10; anything below half signals
	// the ub ordering is visiting the wrong cells.
	if recall := float64(hits) / float64(total); recall < 0.5 {
		t.Fatalf("nprobe=1 recall@%d = %.2f on tightly clustered data", k, recall)
	}
	// An engine built with a default NProbe serves it through TopK.
	capped := ivfEngine(docs, IVFConfig{NProbe: 2})
	if _, st := capped.TopKWithStats(append([]float64(nil), docs.Row(3)...), k); st.ClustersScanned > 2 {
		t.Fatalf("configured nprobe=2 scanned %d clusters", st.ClustersScanned)
	}
}

// TestWithIVFIndexShapeGuard pins the misuse panic: attaching an index
// that covers more rows than the engine holds must fail loudly.
func TestWithIVFIndexShapeGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	big := NewEngine(randomMatrix(rng, 600, 8))
	small := NewEngine(randomMatrix(rng, 100, 8))
	idx := big.BuildIVFIndex(IVFConfig{MinRows: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized index attached without panic")
		}
	}()
	small.WithIVFIndex(idx)
}
