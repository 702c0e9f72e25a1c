package dense

import (
	"math"
	"math/rand"
	"testing"
)

// TestDotRowsBitEqualToDot: every element DotRows produces must carry
// the bits Dot gives for the same row — across row counts that exercise
// the four-row sweep and its remainder, every length from 0 to 257, and
// inputs salted with NaN, ±Inf, signed zeros and subnormals. `make
// test-portable` runs the same table under -tags purego.
func TestDotRowsBitEqualToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.MaxFloat64, 1e-300}
	fill := func(xs []float64, salt bool) {
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			if salt && rng.Intn(8) == 0 {
				xs[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for n := 0; n <= 257; n++ {
		for _, rows := range []int{0, 1, 3, 4, 5, 8, 11} {
			for _, salt := range []bool{false, true} {
				m := New(rows, n)
				x := make([]float64, n)
				fill(m.Data, salt)
				fill(x, salt)
				dst := make([]float64, rows+1)
				dst[rows] = 42 // past m.Rows: must stay untouched
				DotRows(dst, m, x)
				for i := 0; i < rows; i++ {
					if got, want := math.Float64bits(dst[i]), math.Float64bits(Dot(m.Row(i), x)); got != want {
						t.Fatalf("n=%d rows=%d salt=%v row %d: DotRows %x, Dot %x", n, rows, salt, i, got, want)
					}
				}
				if dst[rows] != 42 {
					t.Fatalf("n=%d rows=%d: DotRows wrote past the last row", n, rows)
				}
			}
		}
	}
}

// TestDotRowsRejectsMismatch: a vector of the wrong length, or a short
// destination, panics like Dot does.
func TestDotRowsRejectsMismatch(t *testing.T) {
	for _, c := range []struct {
		dst, x int
	}{{5, 3}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dst %d x %d against 5x4: no panic", c.dst, c.x)
				}
			}()
			DotRows(make([]float64, c.dst), New(5, 4), make([]float64, c.x))
		}()
	}
}
