// Package dense provides dense matrix storage and the dense linear-algebra
// kernels the LSI pipeline needs: BLAS-like multiply routines, Householder
// QR, and two independent SVD implementations (one-sided Jacobi and
// Golub–Reinsch bidiagonal QR). Everything is float64 and row-major.
//
// The package is self-contained (stdlib only) and deliberately small: it is
// the workhorse under internal/lanczos (small projected problems) and
// internal/core (the worked 18×14 example, SVD-updating phases), not a
// general-purpose BLAS replacement.
package dense

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] == element (i,j)
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from row slices; all rows must share a length.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("dense: ragged row %d: len %d want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d []float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Data[i*len(d)+i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("dense: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("dense: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("dense: col %d out of range %d", j, m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol overwrites column j with v (len(v) must equal Rows).
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("dense: SetCol len %d want %d", len(v), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := New(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Slice returns a copy of the submatrix with rows [r0,r1) and cols [c0,c1).
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("dense: bad slice [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	s := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return s
}

// AugmentCols returns [m | b] (horizontal concatenation).
func (m *Matrix) AugmentCols(b *Matrix) *Matrix {
	if m.Rows != b.Rows {
		panic(fmt.Sprintf("dense: AugmentCols rows %d != %d", m.Rows, b.Rows))
	}
	out := New(m.Rows, m.Cols+b.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i)[:m.Cols], m.Row(i))
		copy(out.Row(i)[m.Cols:], b.Row(i))
	}
	return out
}

// AugmentRows returns [m ; b] (vertical concatenation).
func (m *Matrix) AugmentRows(b *Matrix) *Matrix {
	if m.Cols != b.Cols {
		panic(fmt.Sprintf("dense: AugmentRows cols %d != %d", m.Cols, b.Cols))
	}
	out := New(m.Rows+b.Rows, m.Cols)
	copy(out.Data[:len(m.Data)], m.Data)
	copy(out.Data[len(m.Data):], b.Data)
	return out
}

// FlipColumns negates the columns of m marked in flip, in place — the
// applicator for a sign convention decided externally (FixSigns'
// decision computed across distributed row blocks of one conceptual
// matrix; see core.CombineSignFlips). Columns beyond len(flip) are left
// alone.
func FlipColumns(m *Matrix, flip []bool) {
	w := len(flip)
	if w > m.Cols {
		w = m.Cols
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := 0; j < w; j++ {
			if flip[j] {
				row[j] = -row[j]
			}
		}
	}
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Add returns m + b as a new matrix.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("dense: Add shape %dx%d != %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns m - b as a new matrix.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("dense: Sub shape %dx%d != %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range m.Data {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Equal reports whether every element of m and b agrees within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&sb, "% 9.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// OrthogonalityError returns ‖QᵀQ − I‖_F for the columns of Q — the measure
// the paper uses in §4.3 to quantify the distortion folding-in introduces.
func OrthogonalityError(q *Matrix) float64 {
	g := MulT(q, q) // QᵀQ
	for i := 0; i < g.Rows; i++ {
		g.Data[i*g.Cols+i] -= 1
	}
	return g.FrobeniusNorm()
}
