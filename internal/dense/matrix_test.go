package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewAndAt(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %dx%d data %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("Set/At roundtrip failed: %v", m.At(1, 2))
	}
	for _, v := range []float64{m.At(0, 0), m.At(0, 1), m.At(1, 0)} {
		if v != 0 {
			t.Fatalf("fresh matrix not zeroed")
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range At")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityAndDiag(t *testing.T) {
	i3 := Identity(3)
	d := Diag([]float64{1, 2, 3})
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			wantI, wantD := 0.0, 0.0
			if i == j {
				wantI = 1
				wantD = float64(i + 1)
			}
			if i3.At(i, j) != wantI || d.At(i, j) != wantD {
				t.Fatalf("identity/diag wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 7, 4)
	if !m.T().T().Equal(m, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestSliceAndAugment(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want := NewFromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equal(want, 0) {
		t.Fatalf("slice wrong:\n%v", s)
	}
	ac := m.Slice(0, 3, 0, 1).AugmentCols(m.Slice(0, 3, 1, 3))
	if !ac.Equal(m, 0) {
		t.Fatal("AugmentCols does not reassemble")
	}
	ar := m.Slice(0, 1, 0, 3).AugmentRows(m.Slice(1, 3, 0, 3))
	if !ar.Equal(m, 0) {
		t.Fatal("AugmentRows does not reassemble")
	}
}

func TestMulAgainstHandComputed(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-14) {
		t.Fatalf("Mul wrong:\n%v", got)
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 97, 64) // big enough to trip the parallel path
	b := randomMatrix(rng, 64, 53)
	got := Mul(a, b)
	want := New(97, 53)
	mulRange(want, a, b, 0, a.Rows)
	if !got.Equal(want, 1e-12) {
		t.Fatal("parallel Mul differs from serial")
	}
}

func TestMulTAndMulBT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 8, 5)
	b := randomMatrix(rng, 8, 6)
	if !MulT(a, b).Equal(Mul(a.T(), b), 1e-12) {
		t.Fatal("MulT != AᵀB")
	}
	c := randomMatrix(rng, 7, 5)
	if !MulBT(a, c).Equal(Mul(a, c.T()), 1e-12) {
		t.Fatal("MulBT != ABᵀ")
	}
}

func TestMulVecVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 6, 4)
	x := make([]float64, 4)
	y := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	ax := MulVec(a, x)
	for i := 0; i < 6; i++ {
		if math.Abs(ax[i]-Dot(a.Row(i), x)) > 1e-13 {
			t.Fatal("MulVec row mismatch")
		}
	}
	aty := MulVecT(a, y)
	want := MulVec(a.T(), y)
	for i := range aty {
		if math.Abs(aty[i]-want[i]) > 1e-13 {
			t.Fatal("MulVecT mismatch")
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestDotCosineNorm(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Dot(x, []float64{1, 1}) != 7 {
		t.Fatal("Dot wrong")
	}
	if c := Cosine([]float64{1, 0}, []float64{0, 1}); c != 0 {
		t.Fatalf("orthogonal cosine = %v", c)
	}
	if c := Cosine(x, []float64{6, 8}); math.Abs(c-1) > 1e-15 {
		t.Fatalf("parallel cosine = %v", c)
	}
	if Cosine(x, []float64{0, 0}) != 0 {
		t.Fatal("zero-vector cosine should be 0")
	}
}

func TestNorm2Overflow(t *testing.T) {
	big := 1e300
	n := Norm2([]float64{big, big})
	want := big * math.Sqrt(2)
	if math.IsInf(n, 0) || math.Abs(n-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow guard failed: %v", n)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{0, 3, 4}
	n := Normalize(x)
	if n != 5 || math.Abs(Norm2(x)-1) > 1e-15 {
		t.Fatalf("Normalize: n=%v |x|=%v", n, Norm2(x))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Fatal("zero vector should return 0")
	}
	// A norm so far subnormal that 1/‖x‖ overflows must still normalize to
	// a finite unit vector.
	for _, x := range [][]float64{{5e-324}, {5e-324, 5e-324, 0, -5e-324}, {1e-320, -3e-322, 5e-324}} {
		orig := append([]float64(nil), x...)
		n := Normalize(x)
		if n != Norm2(orig) || n == 0 {
			t.Fatalf("Normalize(%v) returned %v, want Norm2 %v", orig, n, Norm2(orig))
		}
		if nx := Norm2(x); math.Abs(nx-1) > 1e-15 {
			t.Fatalf("Normalize(%v) = %v with norm %v", orig, x, nx)
		}
		for i, v := range x {
			if (v < 0) != (orig[i] < 0) || (v == 0) != (orig[i] == 0) {
				t.Fatalf("Normalize(%v) = %v changed a sign or a zero", orig, x)
			}
		}
	}
}

func TestScaleColsMatchesDiagMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 5, 3)
	d := []float64{2, -1, 0.5}
	want := Mul(a, Diag(d))
	got := ScaleCols(a.Clone(), d)
	if !got.Equal(want, 1e-14) {
		t.Fatal("ScaleCols != A·diag(d)")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewFromRows([][]float64{{3, 0}, {0, 4}})
	if f := m.FrobeniusNorm(); math.Abs(f-5) > 1e-14 {
		t.Fatalf("Frobenius = %v", f)
	}
}

// Property: ‖A‖_F² == Σσᵢ² (Theorem 2.1, norms property).
func TestFrobeniusEqualsSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 5; trial++ {
		a := randomMatrix(rng, 6+trial, 4)
		f := SVDJacobi(a)
		var ssq float64
		for _, s := range f.S {
			ssq += s * s
		}
		nf := a.FrobeniusNorm()
		if math.Abs(math.Sqrt(ssq)-nf) > 1e-10*nf {
			t.Fatalf("‖A‖_F %v != sqrt(Σσ²) %v", nf, math.Sqrt(ssq))
		}
	}
}

func TestOrthogonalityError(t *testing.T) {
	if e := OrthogonalityError(Identity(4)); e != 0 {
		t.Fatalf("identity orthogonality error %v", e)
	}
	// A matrix with a duplicated column is maximally non-orthogonal.
	m := NewFromRows([][]float64{{1, 1}, {0, 0}})
	if e := OrthogonalityError(m); e < 1 {
		t.Fatalf("duplicated column error too small: %v", e)
	}
}

// quick-check: (A+B)−B == A elementwise for generated shapes.
func TestAddSubRoundTripQuick(t *testing.T) {
	f := func(seed int64, r8, c8 uint8) bool {
		r := int(r8%6) + 1
		c := int(c8%6) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, r, c)
		b := randomMatrix(rng, r, c)
		return a.Add(b).Sub(b).Equal(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// quick-check: Mul is associative within tolerance.
func TestMulAssociativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 4, 5)
		b := randomMatrix(rng, 5, 3)
		c := randomMatrix(rng, 3, 6)
		return Mul(Mul(a, b), c).Equal(Mul(a, Mul(b, c)), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
