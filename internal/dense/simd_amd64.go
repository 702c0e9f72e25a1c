//go:build amd64 && !purego

package dense

// The AVX2+FMA forms of the two screening dots (simd_amd64.s) serve DotI8,
// DotF32 and their Rows forms wherever CPU and OS support them; elsewhere,
// and under -tags purego (simd_generic.go), the portable loops do.

// useAVX2 is decided once, before any kernel runs; nothing else selects.
var useAVX2 = cpuHasAVX2FMA()

// cpuHasAVX2FMA reports AVX2 and FMA with OS-saved YMM state.
func cpuHasAVX2FMA() bool

// dotI8RowsAVX2 sets dst[j] = q·(row ids[j] of the cols-wide row-major
// data) for j < nids. It checks nothing: nids ≥ 1, cols ≥ 1 and in-range
// ids are the caller's to establish (checkRows).
//
//go:noescape
//lsilint:noalloc
func dotI8RowsAVX2(dst *int32, q, data *int8, ids *int32, nids, cols int)

// dotF32RowsAVX2 is dotI8RowsAVX2 over float32 rows.
//
//go:noescape
//lsilint:noalloc
func dotF32RowsAVX2(dst *float32, q, data *float32, ids *int32, nids, cols int)
