package dense

import (
	"math"
	"math/rand"
	"testing"
)

func TestAccumF32(t *testing.T) {
	dst := []float64{1, 2, 3}
	AccumF32(dst, []float32{0.5, -2, 10})
	want := []float64{1.5, 0, 13}
	for i, v := range dst {
		if v != want[i] {
			t.Fatalf("dst[%d] = %v want %v", i, v, want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	AccumF32(dst, []float32{1})
}

func TestAccumF32KeepsLowBits(t *testing.T) {
	// Summing many small float32 values into a float64 accumulator must
	// not quantize the running sum back to float32.
	dst := []float64{0}
	for i := 0; i < 1<<12; i++ {
		AccumF32(dst, []float32{0x1p-12})
	}
	if math.Abs(dst[0]-1) > 1e-9 {
		t.Fatalf("accumulated %v want 1", dst[0])
	}
}

func TestArgBestF32(t *testing.T) {
	dots := []float32{1, 5, 5, 2}
	adj := []float32{0, 1, 1, -4}
	// Scores: 1, 4, 4, 6 → index 3 wins.
	if got := ArgBestF32(dots, adj); got != 3 {
		t.Fatalf("got %d want 3", got)
	}
	// Exact tie between 1 and 2 → lowest index.
	if got := ArgBestF32([]float32{0, 7, 7}, []float32{0, 0, 0}); got != 1 {
		t.Fatalf("tie broke to %d want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty input did not panic")
		}
	}()
	ArgBestF32(nil, nil)
}

func TestDistNorm2(t *testing.T) {
	if d := DistNorm2([]float64{1, 0}, []float64{0, 1}); math.Abs(d-math.Sqrt2) > 1e-15 {
		t.Fatalf("got %v want √2", d)
	}
	if d := DistNorm2([]float64{3, 4}, []float64{3, 4}); d != 0 {
		t.Fatalf("self distance %v", d)
	}
	rng := rand.New(rand.NewSource(9))
	x, y := make([]float64, 33), make([]float64, 33)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	// Agrees with the axpy+norm formulation.
	diff := make([]float64, len(x))
	copy(diff, x)
	Axpy(-1, y, diff)
	if d, want := DistNorm2(x, y), Norm2(diff); math.Abs(d-want) > 1e-12*want {
		t.Fatalf("got %v want %v", d, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	DistNorm2(x, y[:5])
}
