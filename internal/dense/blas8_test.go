package dense

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDotI8 is the reference the unrolled kernel is pinned against —
// int64 accumulation, so any int32 overflow in the kernel would show.
func naiveDotI8(x, y []int8) int64 {
	var s int64
	for i := range x {
		s += int64(x[i]) * int64(y[i])
	}
	return s
}

func randI8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

func TestDotI8Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 100, 1000} {
		x, y := randI8(rng, n), randI8(rng, n)
		got := DotI8(x, y)
		want := naiveDotI8(x, y)
		if int64(got) != want {
			t.Fatalf("n=%d: DotI8 = %d, want %d", n, got, want)
		}
	}
}

func TestDotI8WorstCaseNoOverflow(t *testing.T) {
	// Every term at the maximum magnitude, at the widest supported row:
	// the sum must still be exact in int32.
	x := make([]int8, MaxI8Dim)
	for i := range x {
		x[i] = 127
	}
	got := DotI8(x, x)
	want := naiveDotI8(x, x)
	if want > math.MaxInt32 {
		t.Fatalf("MaxI8Dim too large: worst-case dot %d overflows int32", want)
	}
	if int64(got) != want {
		t.Fatalf("worst-case DotI8 = %d, want %d", got, want)
	}
}

func TestQuantizeI8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 5, 64, 301} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		q := make([]int8, n)
		scale := QuantizeI8(q, src)
		if scale <= 0 {
			t.Fatalf("n=%d: nonpositive scale %v for nonzero input", n, scale)
		}
		// Per-coordinate error of symmetric round-to-nearest is at most
		// half a step.
		for i, v := range src {
			if d := math.Abs(v - scale*float64(q[i])); d > scale/2*(1+1e-12) {
				t.Fatalf("coord %d: |%v - %v·%d| = %v exceeds scale/2", i, v, scale, q[i], d)
			}
		}
		// The residual matches a direct computation.
		want := 0.0
		for i, v := range src {
			d := v - scale*float64(q[i])
			want += d * d
		}
		want = math.Sqrt(want)
		if got := ResidualI8(src, q, scale); got != want {
			t.Fatalf("ResidualI8 = %v, want %v", got, want)
		}
	}
}

func TestQuantizeI8ZeroVector(t *testing.T) {
	src := make([]float64, 7)
	q := []int8{1, 2, 3, 4, 5, 6, 7} // stale garbage must be cleared
	if scale := QuantizeI8(q, src); scale != 0 {
		t.Fatalf("zero vector scale = %v, want 0", scale)
	}
	for i, v := range q {
		if v != 0 {
			t.Fatalf("q[%d] = %d, want 0", i, v)
		}
	}
	if r := ResidualI8(src, q, 0); r != 0 {
		t.Fatalf("zero-vector residual = %v, want 0", r)
	}
}

func TestQuantizeI8ExtremeCoordinateClamps(t *testing.T) {
	// The extreme coordinate divides to exactly ±127 in real arithmetic;
	// the float division may land above, and must clamp, never wrap.
	src := []float64{1e-300, -1e-300, 1e-308, -1e-308, 0.3}
	q := make([]int8, len(src))
	QuantizeI8(q, src)
	for i, v := range q {
		if v > 127 || v < -127 {
			t.Fatalf("q[%d] = %d out of [-127,127]", i, v)
		}
	}
	if q[4] != 127 {
		t.Fatalf("extreme coordinate q = %d, want 127", q[4])
	}
}
