//go:build !amd64 || purego

package dense

// No assembly in this build: useAVX2 is constant false, so the portable
// loops are the whole kernel and the stand-ins below are never called.
const useAVX2 = false

func dotI8RowsAVX2(dst *int32, q, data *int8, ids *int32, nids, cols int) {
	panic("dense: no AVX2 kernel")
}

func dotF32RowsAVX2(dst *float32, q, data *float32, ids *int32, nids, cols int) {
	panic("dense: no AVX2 kernel")
}
