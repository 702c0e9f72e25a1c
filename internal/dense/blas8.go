package dense

import (
	"fmt"
	"math"
)

// Int8 companion kernels for the three-tier exact top-k scan: the coarse
// screening pass streams a scalar-quantized mirror of the normalized
// document matrix at one byte per coordinate — a quarter of the float32
// mirror's traffic — with one float64 scale per row. The integer dot
// product of two quantized rows is EXACT (int32 accumulation never
// rounds), so the only error between the quantized score and the true
// one is the quantization residual itself, which is measured per row at
// build time. Like the float32 kernels, these routines never decide a
// final score — only a provably safe candidate set (see internal/rank
// and docs/ALGORITHMS.md for the bracket derivation).

// MaxI8Dim is the widest row the int8 kernels accept: every product is
// bounded by 127² < 2¹⁴, so int32 accumulation of MaxI8Dim terms stays
// below 2³¹ with headroom. Callers (the rank-layer tier builder) skip
// the int8 tier for wider rows instead of risking overflow.
const MaxI8Dim = 1 << 16

// MatrixI8 is a dense row-major int8 matrix — storage for the quantized
// screening tier. It mirrors Matrix's field layout instead of being
// generic: the types never mix inside a kernel.
type MatrixI8 struct {
	Rows, Cols int
	Data       []int8 // len == Rows*Cols, Data[i*Cols+j] == element (i,j)
}

// Row returns a view (not a copy) of row i.
func (m *MatrixI8) Row(i int) []int8 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("dense: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// DotI8 returns the int32 inner product of x and y — exact in any
// accumulation order (each product is at most 128² and len(x) ≤ MaxI8Dim
// keeps the sum inside int32), so the AVX2 kernel and the portable loop
// return the same bits and differ only in throughput.
//
//lsilint:noalloc
func DotI8(x, y []int8) int32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: DotI8 lens %d != %d", len(x), len(y)))
	}
	if !useAVX2 || len(x) == 0 {
		return dotI8Generic(x, y)
	}
	var d, id int32 // y is row 0 of a one-row matrix
	dotI8RowsAVX2(&d, &x[0], &y[0], &id, 1, len(x))
	return d
}

// dotI8Generic is the portable DotI8 kernel.
//
//lsilint:noalloc
func dotI8Generic(x, y []int8) int32 {
	y = y[:len(x)] // bounds-check elimination inside the unrolled loop
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += int32(x[i]) * int32(y[i])
		s1 += int32(x[i+1]) * int32(y[i+1])
		s2 += int32(x[i+2]) * int32(y[i+2])
		s3 += int32(x[i+3]) * int32(y[i+3])
	}
	for ; i < len(x); i++ {
		s0 += int32(x[i]) * int32(y[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// DotI8Rows sets dst[j] = DotI8(q, m.Row(ids[j])) — the int8 tier's
// stage-1 kernel, one call per gathered id run. The assembly loop checks
// nothing, so checkRows runs first: a bad id panics as Row does.
//
//lsilint:noalloc
func DotI8Rows(dst []int32, q []int8, m *MatrixI8, ids []int32) {
	checkRows(len(dst), len(q), len(m.Data), m.Rows, m.Cols, ids)
	if !useAVX2 || len(q) == 0 {
		for j, id := range ids {
			dst[j] = dotI8Generic(q, m.Data[int(id)*m.Cols:][:m.Cols])
		}
		return
	}
	for lo, step := 0, rowsChunkElems/len(q)+1; lo < len(ids); lo += step {
		dotI8RowsAVX2(&dst[lo], &q[0], &m.Data[0], &ids[lo], min(step, len(ids)-lo), len(q))
	}
}

// rowsChunkElems is how many matrix elements one assembly call covers — a
// few thousand rows, tens of µs: assembly cannot be preempted.
const rowsChunkElems = 1 << 18

// checkRows is the bounds check of the Dot*Rows kernels: one dst slot per
// id, q as wide as a row, rows×cols elements of data, every id a row.
//
//lsilint:noalloc
func checkRows(ndst, nq, ndata, rows, cols int, ids []int32) {
	if ndst != len(ids) || nq != cols || rows < 0 || cols > 0 && rows > ndata/cols {
		panic(fmt.Sprintf("dense: rows kernel: dst %d, ids %d, query %d, matrix %dx%d over %d", ndst, len(ids), nq, rows, cols, ndata))
	}
	for _, id := range ids {
		if uint(id) >= uint(rows) {
			panic(fmt.Sprintf("dense: row %d out of range %d", id, rows))
		}
	}
}

// QuantizeI8 writes the symmetric scalar quantization of src into dst
// and returns the scale: s = max|src|/127, dst[j] = round(src[j]/s)
// clamped to [−127, 127]. A zero vector quantizes to scale 0 and all
// zeros. The clamp matters: s is itself rounded, so src[j]/s can land a
// hair above 127 for the extreme coordinate.
//
//lsilint:noalloc
func QuantizeI8(dst []int8, src []float64) float64 {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dense: QuantizeI8 lens %d != %d", len(dst), len(src)))
	}
	var maxAbs float64
	for _, v := range src {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 { //lsilint:ignore floatcmp — exact zero-vector test; any nonzero maxAbs is a valid divisor
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range src {
		q := math.Round(v * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// ResidualI8 returns ‖x − scale·q‖₂, accumulated in float64 — the
// per-row quantization residual the certified int8 bracket is built
// from. Inputs are unit-scale (normalized rows and queries), so plain
// squared accumulation cannot overflow.
//
//lsilint:noalloc
func ResidualI8(x []float64, q []int8, scale float64) float64 {
	if len(x) != len(q) {
		panic(fmt.Sprintf("dense: ResidualI8 lens %d != %d", len(x), len(q)))
	}
	var s float64
	for i, v := range x {
		d := v - scale*float64(q[i])
		s += d * d
	}
	return math.Sqrt(s)
}
