package dense

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Float32 companion kernels for the two-stage exact top-k scan: the
// screening pass streams a half-width mirror of the normalized document
// matrix, so the bandwidth-bound part of query scoring moves half the
// bytes of the float64 path. Only *screening* runs in float32 — every
// surviving candidate is rescored with the float64 kernels, so these
// routines never decide a final score, only a provably safe candidate
// set (see internal/rank and docs/ALGORITHMS.md for the error bound).

// MatrixF32 is a dense row-major float32 matrix — storage for screening
// mirrors and k-means centroid and assignment blocks. It deliberately mirrors Matrix's
// field layout instead of being generic: the two types never mix inside
// a kernel.
type MatrixF32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, Data[i*Cols+j] == element (i,j)
}

// NewF32 returns a zeroed r×c float32 matrix.
func NewF32(r, c int) *MatrixF32 {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &MatrixF32{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// Row returns a view (not a copy) of row i.
func (m *MatrixF32) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("dense: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// DotF32 returns the float32 inner product of x and y, by the AVX2+FMA
// kernel or dotF32Generic. Their summation orders, hence last bits, differ;
// any order stays inside the |fl(x·y) − x·y| ≤ γ_n·‖x‖·‖y‖ bound the rescue
// threshold is built on, and no float32 score ever reaches a result.
//
//lsilint:noalloc
func DotF32(x, y []float32) float32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: DotF32 lens %d != %d", len(x), len(y)))
	}
	if !useAVX2 || len(x) == 0 {
		return dotF32Generic(x, y)
	}
	var d float32
	var id int32 // y is row 0 of a one-row matrix
	dotF32RowsAVX2(&d, &x[0], &y[0], &id, 1, len(x))
	return d
}

// dotF32Generic is the portable DotF32 kernel: eight accumulators, so
// the loop runs at multiply-add throughput instead of add latency.
//
//lsilint:noalloc
func dotF32Generic(x, y []float32) float32 {
	y = y[:len(x)] // bounds-check elimination inside the unrolled loop
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(x); i += 8 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
		s4 += x[i+4] * y[i+4]
		s5 += x[i+5] * y[i+5]
		s6 += x[i+6] * y[i+6]
		s7 += x[i+7] * y[i+7]
	}
	var t float32
	for ; i < len(x); i++ {
		t += x[i] * y[i]
	}
	return (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + t
}

// DotF32Rows sets dst[j] = DotF32(q, m.Row(ids[j])) for every j — the
// float32 form of DotI8Rows, checked the same way.
//
//lsilint:noalloc
func DotF32Rows(dst []float32, q []float32, m *MatrixF32, ids []int32) {
	checkRows(len(dst), len(q), len(m.Data), m.Rows, m.Cols, ids)
	if !useAVX2 || len(q) == 0 {
		for j, id := range ids {
			dst[j] = dotF32Generic(q, m.Data[int(id)*m.Cols:][:m.Cols])
		}
		return
	}
	for lo, step := 0, rowsChunkElems/len(q)+1; lo < len(ids); lo += step {
		dotF32RowsAVX2(&dst[lo], &q[0], &m.Data[0], &ids[lo], min(step, len(ids)-lo), len(q))
	}
}

// ConvertF32 rounds src element-wise to float32 into dst — the
// quantization step that builds mirror rows and query mirrors.
//
//lsilint:noalloc
func ConvertF32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dense: ConvertF32 lens %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// ResidualF32 returns ‖x − y‖₂ with y read back as exact reals — the
// per-row quantization residual that the Cauchy–Schwarz screening bound
// is built from. Inputs are unit-scale (normalized rows and queries), so
// plain squared accumulation cannot overflow.
//
//lsilint:noalloc
func ResidualF32(x []float64, y []float32) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: ResidualF32 lens %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		d := v - float64(y[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// Norm2F32 returns the Euclidean norm of x, accumulated in float64.
// Like ResidualF32 it is meant for unit-scale screening vectors, so it
// skips Norm2's overflow scaling.
//
//lsilint:noalloc
func Norm2F32(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MulBTF32Into computes out = a·bᵀ into an existing a.Rows×b.Rows float32
// matrix — the gemm behind the cluster index's row-to-centroid
// assignment (rank.assignRowsF32), structured exactly like the float64
// MulBTInto: work splits across workers along whichever operand has more
// rows, and each worker sweeps b in blocks so a handful of b rows stay
// cache-hot across consecutive a rows. Every output element is one
// DotF32, so the result is identical for any worker count.
func MulBTF32Into(out, a, b *MatrixF32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulBTF32 inner dims %d != %d", a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulBTF32 out %dx%d want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	work := a.Rows * b.Rows * a.Cols
	nw := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || nw < 2 {
		mulBTF32Range(out, a, b, 0, a.Rows, 0, b.Rows)
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
				mulBTF32Range(out, a, b, lo, hi, 0, b.Rows)
			}(lo, hi)
		}
	} else {
		// Few a rows (a query block against a large mirror): split the b
		// rows, i.e. disjoint column ranges of out.
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
				mulBTF32Range(out, a, b, 0, a.Rows, lo, hi)
			}(lo, hi)
		}
	}
	wg.Wait()
}

// mulBTF32Block is how many rows of b a worker keeps hot while sweeping
// its a rows — twice the float64 block, since float32 rows are half the
// bytes and the same L2 budget holds twice as many of them.
const mulBTF32Block = 96

// mulBTF32Range fills out[i][j] = a.Row(i)·b.Row(j) for i in [i0,i1),
// j in [j0,j1), blocking over j for cache reuse.
//
//lsilint:noalloc
func mulBTF32Range(out, a, b *MatrixF32, i0, i1, j0, j1 int) {
	for jb := j0; jb < j1; jb += mulBTF32Block {
		jend := jb + mulBTF32Block
		if jend > j1 {
			jend = j1
		}
		for i := i0; i < i1; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := jb; j < jend; j++ {
				orow[j] = DotF32(arow, b.Row(j))
			}
		}
	}
}
