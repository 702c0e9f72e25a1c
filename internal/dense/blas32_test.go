package dense

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randomF32(rng *rand.Rand, r, c int) *MatrixF32 {
	m := NewF32(r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestDotF32Exact checks the unrolled kernel against a naive float32
// accumulation promoted to float64 per term — the two need not agree
// bitwise (different summation orders), so we bound the difference by a
// conservative rounding envelope, and separately pin a handful of small
// exact cases where no rounding can occur.
func TestDotF32Exact(t *testing.T) {
	for n, want := range map[int]float32{0: 0, 1: 2, 2: 6, 3: 12, 5: 30, 9: 90} {
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = float32(i + 1) // small integers: float32 arithmetic is exact
			y[i] = 2
		}
		if got := DotF32(x, y); got != want {
			t.Fatalf("n=%d: DotF32 = %v, want %v", n, got, want)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{4, 7, 16, 33, 100, 1023} {
		x := make([]float32, n)
		y := make([]float32, n)
		var naive float64
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
			naive += float64(x[i]) * float64(y[i])
		}
		got := float64(DotF32(x, y))
		// γ-style envelope: n+1 roundings at float32 precision on the
		// magnitude sum.
		var mag float64
		for i := range x {
			mag += math.Abs(float64(x[i]) * float64(y[i]))
		}
		if tol := float64(n+1) * (1.0 / (1 << 23)) * (mag + 1); math.Abs(got-naive) > tol {
			t.Fatalf("n=%d: DotF32 = %v, naive %v, tol %v", n, got, naive, tol)
		}
	}
}

func TestDotF32PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotF32 accepted mismatched lengths")
		}
	}()
	DotF32(make([]float32, 3), make([]float32, 4))
}

// TestConvertResidualNorm checks the mirror-building helpers:
// ConvertF32 must round each element to nearest float32, ResidualF32
// must equal the Euclidean norm of the conversion error, Norm2F32 the
// float64-accumulated norm of the float32 vector.
func TestConvertResidualNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 257
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	dst := make([]float32, n)
	ConvertF32(dst, src)
	var wantResid, wantNorm float64
	for i := range src {
		if dst[i] != float32(src[i]) {
			t.Fatalf("elem %d: ConvertF32 gave %v want %v", i, dst[i], float32(src[i]))
		}
		d := src[i] - float64(dst[i])
		wantResid += d * d
		wantNorm += float64(dst[i]) * float64(dst[i])
	}
	wantResid = math.Sqrt(wantResid)
	wantNorm = math.Sqrt(wantNorm)
	if got := ResidualF32(src, dst); math.Abs(got-wantResid) > 1e-12*(1+wantResid) {
		t.Fatalf("ResidualF32 = %v want %v", got, wantResid)
	}
	if got := Norm2F32(dst); math.Abs(got-wantNorm) > 1e-12*(1+wantNorm) {
		t.Fatalf("Norm2F32 = %v want %v", got, wantNorm)
	}
}

// TestMulBTF32IntoMatchesDot pins the tiled gemm to the dot kernel it
// reorders: every output cell must be bit-identical to DotF32 of the
// corresponding rows, and identical across worker counts — the screening
// threshold derives from these scores, so nondeterminism here would make
// candidate sets (though never final results) flap between runs.
func TestMulBTF32IntoMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cases := []struct{ m, n, k int }{
		{1, 1, 1},
		{3, 5, 8},
		{32, 200, 48},                    // one tile
		{97, 301, 129},                   // ragged tiles on every edge
		{8, parallelThreshold/32 + 5, 4}, // crosses the parallel threshold
	}
	for _, tc := range cases {
		a := randomF32(rng, tc.m, tc.k)
		b := randomF32(rng, tc.n, tc.k)
		var ref *MatrixF32
		for _, nw := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(nw)
			out := NewF32(tc.m, tc.n)
			MulBTF32Into(out, a, b)
			for i := 0; i < tc.m; i++ {
				for j := 0; j < tc.n; j++ {
					if want := DotF32(a.Row(i), b.Row(j)); out.Data[i*tc.n+j] != want {
						t.Fatalf("%dx%dx%d nw=%d: out[%d,%d]=%v want %v",
							tc.m, tc.n, tc.k, nw, i, j, out.Data[i*tc.n+j], want)
					}
				}
			}
			if ref == nil {
				ref = out
			} else {
				for p, v := range out.Data {
					if math.Float32bits(v) != math.Float32bits(ref.Data[p]) {
						t.Fatalf("%dx%dx%d: nw=%d diverges from nw=1 at %d", tc.m, tc.n, tc.k, nw, p)
					}
				}
			}
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
}

func BenchmarkDotF32(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	x := make([]float32, 256)
	y := make([]float32, 256)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(int64(len(x)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF32 = DotF32(x, y)
	}
}

var sinkF32 float32
