package rank

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dense"
)

// TestCarryIVFIdentityIsTheBuild: carrying a k-means index through the
// identity remap onto an engine over the same rows reproduces it bit for
// bit — same members, same centroid and radius bits, same probe budget.
// Certification is a function of the partition alone.
func TestCarryIVFIdentityIsTheBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, docs := range []*dense.Matrix{
		clusteredMatrix(rng, 1800, 20, 14, 0.07),
		randomMatrix(rng, 900, 12),
	} {
		built := ivfEngine(docs, IVFConfig{Clusters: 30, NProbe: 3})
		identity := make([]int, docs.Rows)
		for i := range identity {
			identity[i] = i
		}
		carried := NewEngine(docs).CarryIVF(built, identity, 1)
		a, b := built.ivf, carried.ivf
		if b == nil || b.rows != a.rows || b.dim != a.dim || b.nprobe != a.nprobe {
			t.Fatalf("carried index %+v, built %+v", b, a)
		}
		if !reflect.DeepEqual(a.members, b.members) {
			t.Fatal("carried membership differs from the build")
		}
		for i := range a.cents.Data {
			if math.Float64bits(a.cents.Data[i]) != math.Float64bits(b.cents.Data[i]) {
				t.Fatalf("centroid element %d: %v vs %v", i, b.cents.Data[i], a.cents.Data[i])
			}
		}
		for c := range a.radius {
			if math.Float64bits(a.radius[c]) != math.Float64bits(b.radius[c]) {
				t.Fatalf("radius %d: %v vs %v", c, b.radius[c], a.radius[c])
			}
		}
	}
}

// compactedCopy imitates a compaction of src's rows: rows with drop[i]
// leave, the rest keep their order under a signed column permutation
// (an orthogonal map) plus a small perturbation, and extra fresh rows are
// appended. It returns the new rows and the old→new remap.
func compactedCopy(rng *rand.Rand, src *dense.Matrix, drop func(int) bool, extra int) (*dense.Matrix, []int) {
	dim := src.Cols
	perm := rng.Perm(dim)
	sign := make([]float64, dim)
	for j := range sign {
		sign[j] = float64(1 - 2*rng.Intn(2))
	}
	newRow := make([]int, src.Rows)
	var rows [][]float64
	for i := range newRow {
		if drop(i) {
			newRow[i] = -1
			continue
		}
		newRow[i] = len(rows)
		row := make([]float64, dim)
		for j := range row {
			row[j] = sign[j]*src.At(i, perm[j]) + 0.01*rng.NormFloat64()
		}
		rows = append(rows, row)
	}
	fresh := randomMatrix(rng, extra, dim)
	for i := 0; i < extra; i++ {
		rows = append(rows, fresh.Row(i))
	}
	return dense.NewFromRows(rows), newRow
}

// TestCarryIVFDropsRowsAndPlacesTheTail carries an index whose source
// has an unclustered tail through a remap that drops rows, onto an
// engine with rows appended past the remap. The carried index must cover
// every row exactly once with radii that dominate their members, and the
// scan over it — int8-first and float32-first, with and without a Skip,
// serial and fanned out — must return exactly NewEngineExact's ids and
// score bits.
func TestCarryIVFDropsRowsAndPlacesTheTail(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const dim = 16
	raw := clusteredMatrix(rng, 2400, dim, 12, 0.08)
	head, tail := raw.Slice(0, 2000, 0, dim), raw.Slice(2000, raw.Rows, 0, dim)
	moved, newRow := compactedCopy(rng, raw, func(i int) bool { return i%7 == 3 || (i >= 2000 && i%5 == 0) }, 150)
	n := moved.Rows
	exact := NewEngineExact(moved)
	for name, ctor := range map[string]func(*dense.Matrix) *Engine{"int8": NewEngine, "f32": newEngineF32} {
		src := ctor(head).BuildIVF(IVFConfig{MinRows: 1, Clusters: 40}).Extend(tail)
		e := ctor(moved).CarryIVF(src, newRow, 1)
		idx := e.ivf
		if idx == nil || idx.rows != n || len(idx.members) != 40 {
			t.Fatalf("%s: carried index %+v over %d rows", name, idx, n)
		}
		seen := make([]int, n)
		for c, mem := range idx.members {
			for _, i := range mem {
				seen[i]++
				if d := dense.DistNorm2(e.docs.Row(int(i)), idx.cents.Row(c)); d > idx.radius[c] {
					t.Fatalf("%s: cell %d radius %v below member %d at %v", name, c, idx.radius[c], i, d)
				}
			}
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("%s: row %d sits in %d cells", name, i, s)
			}
		}
		skip := NewSkip(n)
		for i := 0; i < n; i += 3 {
			skip.Set(i)
		}
		pruned := false
		for qi := 0; qi < 12; qi++ {
			q := randomMatrix(rng, 1, dim).Row(0)
			if qi%3 == 0 {
				copy(q, moved.Row(rng.Intn(n)))
			}
			qn := normalizeCopy(q)
			for _, sk := range []Skip{nil, skip} {
				for _, k := range []int{1, 10, 100} {
					want := exact.topKExact(qn, k, sk)
					for _, fanOut := range []bool{false, true} {
						got, st := e.scan(qn, k, 0, sk, fanOut)
						if !itemsBitEqual(got, want) {
							t.Fatalf("%s query %d k=%d skip=%v fanOut=%v: scan diverges from exact", name, qi, k, sk != nil, fanOut)
						}
						pruned = pruned || st.ClustersScanned < len(idx.members)
					}
				}
			}
		}
		if !pruned {
			t.Errorf("%s: no query pruned a cell of the carried index", name)
		}
	}
}

// TestCarryIVFLeavesUnindexable: no index to carry, an exact-only
// receiver, or a receiver below the row floor come back unchanged.
func TestCarryIVFLeavesUnindexable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	docs := randomMatrix(rng, 300, 8)
	identity := make([]int, docs.Rows)
	for i := range identity {
		identity[i] = i
	}
	indexed := ivfEngine(docs, IVFConfig{})
	for name, tc := range map[string]struct {
		recv, from *Engine
		minRows    int
	}{
		"no index":    {NewEngine(docs), NewEngine(docs), 1},
		"exact-only":  {NewEngineExact(docs), indexed, 1},
		"below floor": {NewEngine(docs), indexed, 0},
	} {
		if got := tc.recv.CarryIVF(tc.from, identity, tc.minRows); got != tc.recv {
			t.Errorf("%s: CarryIVF returned a new engine", name)
		}
	}
}
