package dense

import "sync/atomic"

// ClaimAppend extends an append-only array shared along a chain of
// immutable snapshots (a model's document factor V, a scoring cache) by
// extra elements. It returns a slice of len(data)+extra whose prefix is
// data, the claim token of the allocation that slice lives in, and
// whether that allocation is data's own. The caller fills the tail.
//
// claim counts how many elements of data's backing allocation some
// snapshot in the chain has been handed. When the allocation has room
// and the caller wins the compare-and-swap from len(data), the result
// shares data's storage — an O(extra) append — and every holder of data
// still sees only its own prefix, since nothing below len(data) is
// written. Otherwise data is copied once, under a new token, into a
// fresh allocation of need + need/4 elements: Go's own growth factor for
// large slices, whose quarter of headroom later appends claim. Losing
// the swap means a sibling (another successor of the same snapshot)
// already owns the tail; a nil token means the allocation's provenance
// is unknown (a snapshot file mapping, a sub-slice of a larger array)
// and always copies.
//
// The tail is written before the successor is published; callers hand
// successors to readers through a synchronized publish (an atomic
// pointer, a mutex), which orders those writes.
func ClaimAppend(data []float64, claim *atomic.Int64, extra int) (out []float64, token *atomic.Int64, shared bool) {
	n := len(data)
	need := n + extra
	if claim != nil && cap(data) >= need && claim.CompareAndSwap(int64(n), int64(need)) {
		return data[:need], claim, true
	}
	out = make([]float64, need, need+need/4)
	copy(out, data)
	token = new(atomic.Int64)
	token.Store(int64(need))
	return out, token, false
}
