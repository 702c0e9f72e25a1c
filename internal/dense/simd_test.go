package dense

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The kernel tables: both implementations of the two screening dots,
// called directly. DotI8/DotF32 are the assembly wherever this CPU runs
// it (useAVX2, logged by the tests) and the generic entries are the
// portable loops always, so neither needs a switch to be reached;
// `make test-portable` runs the same tables under -tags purego.
var (
	dotI8Impls  = map[string]func(x, y []int8) int32{"DotI8": DotI8, "generic": dotI8Generic}
	dotF32Impls = map[string]func(x, y []float32) float32{"DotF32": DotF32, "generic": dotF32Generic}
)

// fullRangeI8 draws from the whole int8 domain, −128 included (randI8
// stays in the quantizer's ±127).
func fullRangeI8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(256) - 128)
	}
	return out
}

func constI8(n int, v int8) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// kernelLens is every length 0–257 — all vector-body/tail splits of both
// kernels several times over — plus extra.
func kernelLens(extra ...int) []int {
	lens := make([]int, 0, 258+len(extra))
	for n := 0; n <= 257; n++ {
		lens = append(lens, n)
	}
	return append(lens, extra...)
}

func TestDotI8KernelsExact(t *testing.T) {
	t.Logf("useAVX2 = %v", useAVX2)
	rng := rand.New(rand.NewSource(71))
	for name, dot := range dotI8Impls {
		check := func(what string, x, y []int8) {
			t.Helper()
			if got, want := dot(x, y), naiveDotI8(x, y); int64(got) != want {
				t.Fatalf("%s: %s n=%d: got %d, want %d", name, what, len(x), got, want)
			}
		}
		for _, n := range kernelLens(MaxI8Dim) {
			check("random", fullRangeI8(rng, n), fullRangeI8(rng, n))
			// The extremes: ±127 is the quantizer's range, −128 the value the
			// unsigned-multiply sign trick gets wrong.
			check("127·127", constI8(n, 127), constI8(n, 127))
			check("127·−127", constI8(n, 127), constI8(n, -127))
			check("−128·−128", constI8(n, -128), constI8(n, -128))
			check("−128·127", constI8(n, -128), constI8(n, 127))
		}
		// Unaligned operands: sub-slices at every byte offset of a vector.
		bx, by := fullRangeI8(rng, 31+257), fullRangeI8(rng, 31+257)
		for off := 1; off <= 31; off++ {
			for _, n := range []int{1, 31, 32, 33, 64, 100, 257} {
				check(fmt.Sprintf("offset %d", off), bx[off:off+n], by[31-off:31-off+n])
			}
		}
	}
}

// gammaBound is γ_n·Σ|xᵢyᵢ| for float32 accumulation of n terms, the
// error bound of a dot product summed in any order, plus the float64
// reference value.
func gammaBound(x, y []float32) (ref, bound float64) {
	var mag float64
	for i := range x {
		p := float64(x[i]) * float64(y[i])
		ref += p
		mag += math.Abs(p)
	}
	nu := float64(len(x)) * 0x1p-24
	return ref, nu / (1 - nu) * mag
}

func TestDotF32KernelsWithinGamma(t *testing.T) {
	t.Logf("useAVX2 = %v", useAVX2)
	rng := rand.New(rand.NewSource(72))
	randF32 := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		}
		return out
	}
	for name, dot := range dotF32Impls {
		check := func(what string, x, y []float32) {
			t.Helper()
			ref, bound := gammaBound(x, y)
			if got := float64(dot(x, y)); math.Abs(got-ref) > bound {
				t.Fatalf("%s: %s n=%d: got %v, reference %v, off by %v > γ_n bound %v", name, what, len(x), got, ref, math.Abs(got-ref), bound)
			}
		}
		for _, n := range kernelLens(1000, 4099) {
			check("random", randF32(n), randF32(n))
		}
		bx, by := randF32(31+257), randF32(31+257)
		for off := 1; off <= 31; off++ { // 4-byte steps across a 32-byte vector and beyond
			for _, n := range []int{1, 15, 16, 17, 64, 100, 257} {
				check(fmt.Sprintf("offset %d", off), bx[off:off+n], by[31-off:31-off+n])
			}
		}
		// Denormal terms are summed exactly (no flush to zero): 40 copies
		// of the smallest denormal in vector body and tail alike.
		den := make([]float32, 40)
		one := make([]float32, 40)
		for i := range den {
			den[i], one[i] = math.SmallestNonzeroFloat32, 1
		}
		if got, want := dot(den, one), float32(40*math.SmallestNonzeroFloat32); got != want {
			t.Fatalf("%s: denormal sum = %g, want %g", name, got, want)
		}
		// Non-finite inputs propagate from any lane, body or tail.
		for _, n := range []int{1, 16, 17, 40} {
			for pos := 0; pos < n; pos++ {
				x, y := make([]float32, n), make([]float32, n)
				for i := range x {
					x[i], y[i] = 1, 1
				}
				x[pos] = float32(math.NaN())
				if got := dot(x, y); got == got {
					t.Fatalf("%s: NaN at %d of %d gave %v", name, pos, n, got)
				}
				x[pos] = float32(math.Inf(1))
				if got := dot(x, y); !math.IsInf(float64(got), 1) {
					t.Fatalf("%s: +Inf at %d of %d gave %v", name, pos, n, got)
				}
				y[pos] = -1
				if got := dot(x, y); !math.IsInf(float64(got), -1) {
					t.Fatalf("%s: −Inf at %d of %d gave %v", name, pos, n, got)
				}
				y[pos], y[(pos+1)%n] = 1, float32(math.Inf(-1))
				if got := dot(x, y); n > 1 && got == got {
					t.Fatalf("%s: +Inf−Inf at %d of %d gave %v", name, pos, n, got)
				}
			}
		}
	}
}

// rowIDCases are the id lists the Rows kernels are pinned on, for a
// matrix of the given row count: empty, single, duplicated, first and
// last rows, and one long enough to span several assembly chunks.
func rowIDCases(rng *rand.Rand, rows, cols int) [][]int32 {
	last := int32(rows - 1)
	long := make([]int32, 2*(rowsChunkElems/cols+1)+3)
	for i := range long {
		long[i] = int32(rng.Intn(rows))
	}
	return [][]int32{{}, {0}, {last}, {3}, {5, 5, 5}, {0, last, 0, last}, {last, 2, 2, 0, 7, 1}, long}
}

func TestDotRowsMatchPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, cols := range []int{1, 15, 16, 31, 32, 33, 64, 100} {
		const rows = 41
		m8 := &MatrixI8{Rows: rows, Cols: cols, Data: fullRangeI8(rng, rows*cols)}
		m32 := randomF32(rng, rows, cols)
		q8, q32 := fullRangeI8(rng, cols), randomF32(rng, 1, cols).Data
		for _, ids := range rowIDCases(rng, rows, cols) {
			d8, d32 := make([]int32, len(ids)), make([]float32, len(ids))
			DotI8Rows(d8, q8, m8, ids)
			DotF32Rows(d32, q32, m32, ids)
			for j, id := range ids {
				if want := DotI8(q8, m8.Row(int(id))); d8[j] != want {
					t.Fatalf("cols=%d ids[%d]=%d of %d: DotI8Rows %d, DotI8 %d", cols, j, id, len(ids), d8[j], want)
				}
				if want := DotF32(q32, m32.Row(int(id))); math.Float32bits(d32[j]) != math.Float32bits(want) {
					t.Fatalf("cols=%d ids[%d]=%d of %d: DotF32Rows %v, DotF32 %v", cols, j, id, len(ids), d32[j], want)
				}
			}
		}
	}
	// Zero-width rows: nothing to read, every dot is 0.
	d := []int32{9, 9}
	DotI8Rows(d, nil, &MatrixI8{Rows: 3}, []int32{2, 0})
	if d[0] != 0 || d[1] != 0 {
		t.Fatalf("zero-width DotI8Rows left %v", d)
	}
}

// TestDotRowsBoundsPanic is the memory-safety check of the Rows kernels:
// whatever could make the unchecked assembly loop read or write out of
// bounds must be a Go panic first.
func TestDotRowsBoundsPanic(t *testing.T) {
	const rows, cols = 6, 40
	m8 := &MatrixI8{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}
	m32 := NewF32(rows, cols)
	mustPanic := func(what, msg string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", what)
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, msg) {
				t.Fatalf("%s: panic %v, want a dense panic mentioning %q", what, r, msg)
			}
		}()
		f()
	}
	for _, bad := range [][]int32{{rows}, {-1}, {0, 1, rows + 100}, {math.MinInt32}, {2, math.MaxInt32}} {
		what := fmt.Sprint("ids ", bad)
		mustPanic("int8 "+what, "out of range", func() {
			DotI8Rows(make([]int32, len(bad)), make([]int8, cols), m8, bad)
		})
		mustPanic("float32 "+what, "out of range", func() {
			DotF32Rows(make([]float32, len(bad)), make([]float32, cols), m32, bad)
		})
	}
	ids := []int32{1, 2}
	mustPanic("short dst", "rows kernel", func() { DotI8Rows(make([]int32, 1), make([]int8, cols), m8, ids) })
	mustPanic("short query", "rows kernel", func() { DotI8Rows(make([]int32, 2), make([]int8, cols-1), m8, ids) })
	mustPanic("short data", "rows kernel", func() {
		DotI8Rows(make([]int32, 2), make([]int8, cols), &MatrixI8{Rows: rows, Cols: cols, Data: m8.Data[:rows*cols-1]}, ids)
	})
	mustPanic("negative rows", "rows kernel", func() {
		DotF32Rows(make([]float32, 2), make([]float32, cols), &MatrixF32{Rows: -1, Cols: cols, Data: m32.Data}, ids)
	})
	mustPanic("float32 long dst", "rows kernel", func() { DotF32Rows(make([]float32, 3), make([]float32, cols), m32, ids) })
}
