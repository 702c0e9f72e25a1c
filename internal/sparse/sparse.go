// Package sparse implements the compressed sparse matrix storage and
// matrix–vector kernels that dominate LSI processing time. The paper
// (§§2.1, 5.6) works with term–document matrices that are 99.998% zero;
// everything the Lanczos solver needs is Ax and Aᵀx over such matrices,
// so those two kernels — serial and goroutine-parallel — are the heart of
// this package.
package sparse

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Coord is one explicit entry of a matrix under construction.
type Coord struct {
	Row, Col int
	Val      float64
}

// Builder accumulates coordinate-format entries and converts them to CSR.
// Duplicate (row, col) entries are summed, which makes the term-counting
// loop in corpus construction trivial: emit one entry per token occurrence.
type Builder struct {
	rows, cols int
	entries    []Coord
}

// NewBuilder returns a Builder for an r×c matrix.
func NewBuilder(r, c int) *Builder {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", r, c))
	}
	return &Builder{rows: r, cols: c}
}

// Add records a single entry; duplicates accumulate.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.entries = append(b.entries, Coord{i, j, v})
}

// Build converts the accumulated entries into an immutable CSR matrix.
func (b *Builder) Build() *CSR {
	sort.Slice(b.entries, func(x, y int) bool {
		if b.entries[x].Row != b.entries[y].Row {
			return b.entries[x].Row < b.entries[y].Row
		}
		return b.entries[x].Col < b.entries[y].Col
	})
	// Merge duplicates in place.
	merged := b.entries[:0]
	for _, e := range b.entries {
		n := len(merged)
		if n > 0 && merged[n-1].Row == e.Row && merged[n-1].Col == e.Col {
			merged[n-1].Val += e.Val
		} else {
			merged = append(merged, e)
		}
	}
	m := &CSR{
		Rows:   b.rows,
		Cols:   b.cols,
		RowPtr: make([]int, b.rows+1),
		ColIdx: make([]int, 0, len(merged)),
		Val:    make([]float64, 0, len(merged)),
	}
	for _, e := range merged {
		if e.Val == 0 {
			continue
		}
		m.RowPtr[e.Row+1]++
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Val = append(m.Val, e.Val)
	}
	for i := 0; i < b.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// CSR is an immutable compressed-sparse-row matrix. Row i's entries live in
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], column-sorted.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	// acc recycles the Cols-sized per-worker accumulators MulVecT needs:
	// the Lanczos inner loop calls Aᵀx thousands of times, and without
	// reuse each call churns GOMAXPROCS fresh slices through the heap.
	// The zero value is ready to use, so literal construction sites need
	// no changes; Clone and T deliberately do not share it.
	acc sync.Pool

	// partMu guards parts, the cached nnzPartition bounds per worker
	// count. The structure arrays are immutable after Build, so cached
	// bounds never need invalidating.
	partMu sync.Mutex
	//lsilint:guardedby partMu
	parts map[int][]int
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Density returns NNZ/(Rows·Cols), the sparsity statistic the paper quotes
// for TREC matrices (0.001–0.002%).
func (m *CSR) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// At returns element (i, j) by binary search within the row. O(log nnz_row).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := sort.SearchInts(m.ColIdx[lo:hi], j) + lo
	if idx < hi && m.ColIdx[idx] == j {
		return m.Val[idx]
	}
	return 0
}

// Row calls f(j, v) for each stored entry of row i in column order.
func (m *CSR) Row(i int, f func(j int, v float64)) {
	for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
		f(m.ColIdx[p], m.Val[p])
	}
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// T returns the transpose as a new CSR (equivalently, the CSC view of m).
func (m *CSR) T() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr...)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			t.ColIdx[next[j]] = i
			t.Val[next[j]] = m.Val[p]
			next[j]++
		}
	}
	return t
}

// ScaleRows multiplies row i by d[i], returning a new matrix. This is how
// global term weights G(i) of Eq (5) are applied.
func (m *CSR) ScaleRows(d []float64) *CSR {
	if len(d) != m.Rows {
		panic(fmt.Sprintf("sparse: ScaleRows len %d want %d", len(d), m.Rows))
	}
	c := m.Clone()
	for i := 0; i < m.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			c.Val[p] *= d[i]
		}
	}
	return c
}

// Map returns a new matrix with f applied to every stored value (f(0) is
// assumed to be 0; structural zeros are untouched). Local weights L(i,j)
// of Eq (5) are applied this way.
func (m *CSR) Map(f func(v float64) float64) *CSR {
	c := m.Clone()
	for p, v := range c.Val {
		c.Val[p] = f(v)
	}
	return c
}

// FrobeniusNorm returns ‖A‖_F over stored entries.
func (m *CSR) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Val {
		s += v * v
	}
	return math.Sqrt(s)
}

// ColNorms returns the Euclidean norm of every column (used by the vector
// space baseline for cosine normalization).
func (m *CSR) ColNorms() []float64 {
	out := make([]float64, m.Cols)
	for p, j := range m.ColIdx {
		out[j] += m.Val[p] * m.Val[p]
	}
	for i, v := range out {
		out[i] = math.Sqrt(v)
	}
	return out
}

// Col extracts column j as a dense vector. O(Rows·log nnz_row) — a test
// and worked-example convenience; code that walks columns transposes
// once and reads RowVec.
func (m *CSR) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: col %d out of range %d", j, m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Vec is a sparse vector: ascending, unique indices and their values —
// the term counts of one query or document (§2.1: a handful of nonzeros
// out of m). Producers append to a caller-owned Vec so one buffer serves
// a whole loop; consumers only read it.
type Vec struct {
	Idx []int
	Val []float64
}

// Compress returns the nonzero entries of the dense vector x.
func Compress(x []float64) Vec {
	var v Vec
	for i, f := range x {
		if f != 0 {
			v.Idx = append(v.Idx, i)
			v.Val = append(v.Val, f)
		}
	}
	return v
}

// CompressAll is Compress over a block of dense vectors.
func CompressAll(xs [][]float64) []Vec {
	out := make([]Vec, len(xs))
	for i, x := range xs {
		out[i] = Compress(x)
	}
	return out
}

// Scatter expands v into a dense vector of length n.
func (v Vec) Scatter(n int) []float64 {
	out := make([]float64, n)
	for p, i := range v.Idx {
		out[i] = v.Val[p]
	}
	return out
}

// RowVec returns row i as a Vec aliasing the matrix storage (no copy);
// column j of m is row j of m.T().
func (m *CSR) RowVec(i int) Vec {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return Vec{Idx: m.ColIdx[lo:hi:hi], Val: m.Val[lo:hi:hi]}
}

// Dense expands m into a row-major dense slice-of-slices, for tests and for
// the tiny worked example of §3.
func (m *CSR) Dense() [][]float64 {
	out := make([][]float64, m.Rows)
	flat := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		out[i] = flat[i*m.Cols : (i+1)*m.Cols]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out[i][m.ColIdx[p]] = m.Val[p]
		}
	}
	return out
}

// Equal reports elementwise equality within tol.
func (m *CSR) Equal(b *CSR, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		pa, pb := m.RowPtr[i], b.RowPtr[i]
		ea, eb := m.RowPtr[i+1], b.RowPtr[i+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && m.ColIdx[pa] < b.ColIdx[pb]):
				if math.Abs(m.Val[pa]) > tol {
					return false
				}
				pa++
			case pa >= ea || b.ColIdx[pb] < m.ColIdx[pa]:
				if math.Abs(b.Val[pb]) > tol {
					return false
				}
				pb++
			default:
				if math.Abs(m.Val[pa]-b.Val[pb]) > tol {
					return false
				}
				pa++
				pb++
			}
		}
	}
	return true
}

// AugmentCols returns [m | d] where d is m.Rows×dCols given in CSR form.
func (m *CSR) AugmentCols(d *CSR) *CSR {
	if m.Rows != d.Rows {
		panic(fmt.Sprintf("sparse: AugmentCols rows %d != %d", m.Rows, d.Rows))
	}
	b := NewBuilder(m.Rows, m.Cols+d.Cols)
	for i := 0; i < m.Rows; i++ {
		m.Row(i, func(j int, v float64) { b.Add(i, j, v) })
		d.Row(i, func(j int, v float64) { b.Add(i, m.Cols+j, v) })
	}
	return b.Build()
}

// AugmentRows returns [m ; t] where t is tRows×m.Cols.
func (m *CSR) AugmentRows(t *CSR) *CSR {
	if m.Cols != t.Cols {
		panic(fmt.Sprintf("sparse: AugmentRows cols %d != %d", m.Cols, t.Cols))
	}
	b := NewBuilder(m.Rows+t.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		m.Row(i, func(j int, v float64) { b.Add(i, j, v) })
	}
	for i := 0; i < t.Rows; i++ {
		t.Row(i, func(j int, v float64) { b.Add(m.Rows+i, j, v) })
	}
	return b.Build()
}

// FromDense builds a CSR from a dense [][]float64, dropping exact zeros.
func FromDense(rows [][]float64) *CSR {
	if len(rows) == 0 {
		return NewBuilder(0, 0).Build()
	}
	b := NewBuilder(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != len(rows[0]) {
			panic(fmt.Sprintf("sparse: ragged dense row %d", i))
		}
		for j, v := range row {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}
