// Fixture for the noalloc check.
package fixtures

import "fmt"

// kernel is hot-path code: every allocating construct must be flagged.
//
//lsilint:noalloc
func kernel(out, x []float64, n int) float64 {
	buf := make([]float64, n) // want noalloc
	out = append(out, 1.0)    // want noalloc
	p := new(float64)         // want noalloc
	lit := []float64{1, 2}    // want noalloc
	m := map[int]int{}        // want noalloc
	s := "a" + "b"            // want noalloc
	bs := []byte(s)           // want noalloc
	str := string(bs)         // want noalloc
	fmt.Println(n)            // want noalloc
	var sum float64
	for i, v := range x {
		sum += v * float64(i) // arithmetic and numeric conversions: no diagnostic
	}
	add := func() { sum += buf[0] } // want noalloc
	add()
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // failure path: no diagnostic
	}
	_, _, _, _, _ = p, lit, m, str, out
	return sum
}

// unannotated may allocate freely: no diagnostics anywhere in here.
func unannotated(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(i))
	}
	fmt.Println(len(out))
	return out
}

//lsilint:noalloc
func interfaceReturn(n int) interface{} {
	return n // want noalloc
}

//lsilint:noalloc
func interfaceAssign(sink *interface{}, n int) {
	*sink = n // want noalloc
}

// cleanKernelF32 mirrors the float32 screening kernels: unrolled
// multiply-adds, float32↔float64 numeric conversions, and slice indexing
// are all allocation-free.
//
//lsilint:noalloc
func cleanKernelF32(x, y []float32, eps []float64, low float64) float64 {
	var s0, s1 float32
	i := 0
	for ; i+2 <= len(x); i += 2 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	sc := float64(s0 + s1) // widening conversion: no diagnostic
	if sc+eps[0] >= low {
		return sc
	}
	return float64(float32(low)) // narrowing round-trip: no diagnostic
}

//lsilint:noalloc
func kernelF32(n int) float32 {
	buf := make([]float32, n)     // want noalloc
	m32 := []float32{1, 2}        // want noalloc
	buf = append(buf, float32(n)) // want noalloc
	return buf[0] + m32[0]
}

//lsilint:noalloc
func cleanKernel(x, y []float64) float64 {
	var s0, s1 float64
	i := 0
	for ; i+2 <= len(x); i += 2 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1
}

// cleanGather mirrors the IVF cluster-scan kernels: an int32-gathered
// float32 sweep writing ids and scores into caller-owned scratch by
// index, plus float64 centroid accumulation — all allocation-free.
//
//lsilint:noalloc
func cleanGather(ids []int32, s32 []float32, acc []float64, mem []int32, rows []float32, m int) int {
	for _, id := range mem {
		i := int(id)
		sc := rows[i]
		ids[m] = id
		s32[m] = sc
		acc[i] += float64(sc) // float64 accumulation: no diagnostic
		m++
	}
	return m
}

// gatherAlloc is the same shape gone wrong: growing the candidate list
// with append (instead of indexed writes into pooled scratch) and
// closing over state both allocate on the scan path.
//
//lsilint:noalloc
func gatherAlloc(mem []int32, rows []float32) []float32 {
	var out []float32
	for _, id := range mem {
		out = append(out, rows[int(id)]) // want noalloc
	}
	visit := func(i int32) float32 { return rows[i] } // want noalloc
	_ = visit
	return out
}

// cleanReorth mirrors the Golub–Kahan full-reorthogonalization inner
// loop (dense.reorthRows): two modified Gram–Schmidt passes of dot and
// axpy against row views of a caller-owned basis — run O(l²) times per
// bidiagonalization, so it must stay allocation-free.
//
//lsilint:noalloc
func cleanReorth(basis [][]float64, j int, v []float64) {
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < j; i++ {
			row := basis[i]
			var d float64
			for t := range row {
				d += row[t] * v[t]
			}
			for t := range row {
				v[t] -= d * row[t]
			}
		}
	}
}

// reorthAlloc is the same Gram–Schmidt step gone wrong: materializing a
// scratch projection per basis row and closing over the loop state both
// allocate inside the O(l²) reorthogonalization loop.
//
//lsilint:noalloc
func reorthAlloc(basis [][]float64, j int, v []float64) {
	for i := 0; i < j; i++ {
		proj := make([]float64, len(v)) // want noalloc
		row := basis[i]
		dot := func() float64 { // want noalloc
			var d float64
			for t := range row {
				d += row[t] * v[t]
			}
			return d
		}
		d := dot()
		for t := range row {
			proj[t] = d * row[t]
			v[t] -= proj[t]
		}
	}
}

// cleanBidiagStep mirrors the Golub–Kahan recurrence body: coupling the
// new Lanczos direction to the previous one (u ← C·q − β·x_prev written
// by the caller's gemv) and recording the α/β bidiagonal entries by
// index into preallocated slices.
//
//lsilint:noalloc
func cleanBidiagStep(u, xPrev, alpha, beta []float64, j int, b float64) float64 {
	for t := range u {
		u[t] -= b * xPrev[t]
	}
	var n float64
	for t := range u {
		n += u[t] * u[t]
	}
	alpha[j] = n
	if j > 0 {
		beta[j-1] = b
	}
	return n
}

// cleanKernelI8 mirrors the int8 screening-tier kernels: an unrolled
// int8 dot product accumulated exactly in int32 (products bounded by
// 127² and MaxI8Dim keep the sum in range), then one widening to
// float64 with the per-row scale and residual certificate — all
// allocation-free.
//
//lsilint:noalloc
func cleanKernelI8(x, y []int8, scale, eps8 []float64, row int, low float64) float64 {
	var s0, s1 int32
	i := 0
	for ; i+2 <= len(x); i += 2 {
		s0 += int32(x[i]) * int32(y[i])
		s1 += int32(x[i+1]) * int32(y[i+1])
	}
	for ; i < len(x); i++ {
		s0 += int32(x[i]) * int32(y[i])
	}
	sc := float64(s0+s1) * scale[row] // widening + scale: no diagnostic
	if sc+eps8[row] >= low {
		return sc
	}
	return low
}

// quantizeAlloc is the int8 shape gone wrong: building the quantized
// row and its certificate on the scoring path instead of reading the
// engine's prebuilt arrays.
//
//lsilint:noalloc
func quantizeAlloc(v []float64, s float64) []int8 {
	q := make([]int8, len(v)) // want noalloc
	for i, x := range v {
		q[i] = int8(x / s)
	}
	q = append(q, 0) // want noalloc
	return q
}

// asmKernel mirrors dense's AVX2 stubs: a bodyless declaration backed by
// assembly, trusted as allocation-free, with //go:noescape so callers'
// buffers stay on their stacks.
//
//go:noescape
//lsilint:noalloc
func asmKernel(dst *int32, q *int8, n int)

// asmKernelEscapes is the same stub without the pragma: every slice a
// caller passes it would be heap-allocated.
//
//lsilint:noalloc
func asmKernelEscapes(dst *int32, q *int8, n int) // want noalloc
