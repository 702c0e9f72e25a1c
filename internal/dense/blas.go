package dense

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which Mul and
// friends stay serial; spawning goroutines for tiny products costs more
// than it saves.
const parallelThreshold = 1 << 16

// Mul returns a·b. Large products are partitioned by rows of the result
// across GOMAXPROCS goroutines; the inner loops are written i-k-j so the
// innermost traversal is contiguous in both b and the output.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul inner dims %d != %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	mulInto(out, a, b)
	return out
}

func mulInto(out, a, b *Matrix) {
	work := a.Rows * a.Cols * b.Cols
	nw := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || nw < 2 || a.Rows < 2 {
		mulRange(out, a, b, 0, a.Rows)
		return
	}
	if nw > a.Rows {
		nw = a.Rows
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRange(out, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulRange computes rows [lo,hi) of out = a·b with an ikj loop order.
//
//lsilint:noalloc
func mulRange(out, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulT returns aᵀ·b without materializing the transpose. Large products
// run in parallel: when the output has enough rows they are partitioned
// across workers (per-element summation order identical to the serial
// loop); for tall-skinny operands with a small output — the
// OrthogonalityError and SVD-updating shapes — the shared k dimension is
// split into a fixed number of strips with private accumulators reduced
// in strip order, so the result does not depend on GOMAXPROCS.
func MulT(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dense: MulT inner dims %d != %d", a.Rows, b.Rows))
	}
	out := New(a.Cols, b.Cols)
	work := a.Rows * a.Cols * b.Cols
	nw := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || nw < 2 {
		mulTRange(out, a, b, 0, a.Cols)
		return out
	}
	if a.Cols >= nw {
		var wg sync.WaitGroup
		chunk := (a.Cols + nw - 1) / nw
		for w := 0; w < nw; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > a.Cols {
				hi = a.Cols
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				mulTRange(out, a, b, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return out
	}
	// Tall-skinny: strip the k dimension. The strip count is a constant
	// (not GOMAXPROCS) so the reduction order — and hence the rounded
	// result — is machine-width independent.
	const strips = 8
	partials := make([]*Matrix, strips)
	var wg sync.WaitGroup
	chunk := (a.Rows + strips - 1) / strips
	for s := 0; s < strips; s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			p := New(a.Cols, b.Cols)
			mulTStrip(p, a, b, lo, hi)
			partials[s] = p
		}(s, lo, hi)
	}
	wg.Wait()
	for _, p := range partials {
		if p == nil {
			continue
		}
		for i, v := range p.Data {
			out.Data[i] += v
		}
	}
	return out
}

// mulTRange computes output rows [lo,hi) of out = aᵀ·b:
// out[i][j] = Σ_k a[k][i]·b[k][j], k ascending (same order as the serial
// kernel regardless of how [lo,hi) is partitioned).
//
//lsilint:noalloc
func mulTRange(out, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// mulTStrip accumulates the contribution of shared-dimension rows [lo,hi)
// into p (the full output shape).
//
//lsilint:noalloc
func mulTStrip(p, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for k := lo; k < hi; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			prow := p.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				prow[j] += av * bv
			}
		}
	}
}

// MulBT returns a·bᵀ without materializing the transpose.
func MulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MulBTInto(out, a, b)
	return out
}

// MulBTInto computes out = a·bᵀ into an existing a.Rows×b.Rows matrix —
// the gemm behind batched query scoring, where reusing the score block
// across batches matters. Work is partitioned across workers along
// whichever operand has more rows, and each worker sweeps b in blocks so
// a handful of b rows stay cache-hot across consecutive a rows. Every
// output element is a single ascending-index dot product, so results are
// byte-identical to the serial kernel for any worker count.
func MulBTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulBT inner dims %d != %d", a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulBT out %dx%d want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	work := a.Rows * b.Rows * a.Cols
	nw := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || nw < 2 {
		mulBTRange(out, a, b, 0, a.Rows, 0, b.Rows)
		return
	}
	var wg sync.WaitGroup
	if a.Rows >= b.Rows {
		if nw > a.Rows {
			nw = a.Rows
		}
		chunk := (a.Rows + nw - 1) / nw
		for w := 0; w < nw; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > a.Rows {
				hi = a.Rows
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				mulBTRange(out, a, b, lo, hi, 0, b.Rows)
			}(lo, hi)
		}
	} else {
		// Few a rows (a small query batch against a large collection):
		// split the b rows, i.e. disjoint column ranges of out.
		if nw > b.Rows {
			nw = b.Rows
		}
		chunk := (b.Rows + nw - 1) / nw
		for w := 0; w < nw; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > b.Rows {
				hi = b.Rows
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				mulBTRange(out, a, b, 0, a.Rows, lo, hi)
			}(lo, hi)
		}
	}
	wg.Wait()
}

// mulBTBlock is how many rows of b a worker keeps hot while sweeping its
// a rows: 48 rows × a few hundred columns of float64 fits comfortably in
// L2 alongside the current a row.
const mulBTBlock = 48

// mulBTRange fills out[i][j] = a.Row(i)·b.Row(j) for i in [i0,i1), j in
// [j0,j1), blocking over j for cache reuse.
//
//lsilint:noalloc
func mulBTRange(out, a, b *Matrix, i0, i1, j0, j1 int) {
	for jb := j0; jb < j1; jb += mulBTBlock {
		jend := jb + mulBTBlock
		if jend > j1 {
			jend = j1
		}
		for i := i0; i < i1; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := jb; j < jend; j++ {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
	}
}

// MulVec returns a·x for a vector x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("dense: MulVec dims %d != %d", a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// MulVecT returns aᵀ·x for a vector x.
func MulVecT(a *Matrix, x []float64) []float64 {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("dense: MulVecT dims %d != %d", a.Rows, len(x)))
	}
	out := make([]float64, a.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := a.Row(i)
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// ScaleCols multiplies column j of a by d[j], in place, and returns a.
// With d = Σ this turns singular-vector matrices into the σ-scaled
// coordinates the paper plots in Figures 4–9.
func ScaleCols(a *Matrix, d []float64) *Matrix {
	if a.Cols != len(d) {
		panic(fmt.Sprintf("dense: ScaleCols dims %d != %d", a.Cols, len(d)))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] *= d[j]
		}
	}
	return a
}

// Dot returns the inner product of x and y.
//
//lsilint:noalloc
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: Dot lens %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// DotRows sets dst[i] = Dot(m.Row(i), x) for every row of m. Rows are
// swept four at a time against x, so four independent chains of adds
// overlap instead of each waiting on its own previous add; every output
// keeps Dot's left-to-right chain over its row, so each element is
// Float64bits-equal to Dot's.
//
//lsilint:noalloc
func DotRows(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.Cols || len(dst) < m.Rows {
		panic(fmt.Sprintf("dense: DotRows %dx%d against len %d into %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3), x)
	}
	for ; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// dot4 is Dot of four equal-length rows against one x, each in its own
// left-to-right chain.
//
//lsilint:noalloc
func dot4(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for j, v := range x {
		s0 += r0[j] * v
		s1 += r1[j] * v
		s2 += r2[j] * v
		s3 += r3[j] * v
	}
	return s0, s1, s2, s3
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
//
//lsilint:noalloc
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := v
		if a < 0 {
			a = -a
		}
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += alpha*x in place.
//
//lsilint:noalloc
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: Axpy lens %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// ScaleVec multiplies x by alpha in place.
//
//lsilint:noalloc
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Normalize scales x to unit Euclidean norm and returns the original norm.
// A zero vector is left untouched and 0 is returned.
//
//lsilint:noalloc
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	if inv := 1 / n; !math.IsInf(inv, 0) {
		ScaleVec(inv, x)
		return n
	}
	// The norm is so far subnormal that 1/n overflows. Scaling by a power
	// of two is exact here, so lift x into the normal range first and
	// normalize that; dividing by n itself would leave the row off unit
	// length, since n keeps only a few significant bits.
	ScaleVec(0x1p600, x)
	ScaleVec(1/Norm2(x), x)
	return n
}

// Cosine returns the cosine of the angle between x and y, or 0 when either
// vector is zero. This is the similarity measure of §2.2.
func Cosine(x, y []float64) float64 {
	nx, ny := Norm2(x), Norm2(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return Dot(x, y) / (nx * ny)
}
