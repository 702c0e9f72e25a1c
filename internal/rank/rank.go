// Package rank is the query scoring engine: bounded top-k selection and
// cached-norm cosine scoring over a set of document vectors. It addresses
// the §5.6 open issue of "efficiently comparing queries to documents
// (i.e., finding near neighbors in high-dimension spaces)" on the serving
// side — the per-query costs that dominate a deployed retrieval service.
//
// Three ideas, composable:
//
//  1. Cached norms (Engine): keep a unit-normalized copy of the document
//     matrix so a query cosine is a single dot product instead of a dot
//     plus two norm passes — the norm half of the scan is paid once at
//     build time instead of on every query.
//  2. Bounded selection (TopK): callers almost always want the z best
//     documents, not all n sorted; per-worker min-heaps merged at the
//     barrier select them in O(n log z) instead of the O(n log n) full
//     sort, with the same deterministic order (score desc, doc asc).
//  3. Batched scoring (Engine.TopKBatch): on an exact engine a block of
//     queries against the normalized matrix is one gemm Q·Dᵀ, which the
//     tiled parallel dense.MulBT turns into cache-blocked row sweeps; a
//     screening engine fans its per-query scan (screen.go) across the
//     block instead.
package rank

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// Item is one scored document.
type Item struct {
	Doc   int
	Score float64
}

// Less reports whether a ranks strictly before b: higher score first,
// lower doc id on ties. This is the total order every selection and sort
// in the package uses, so heap-selected prefixes are byte-identical to
// sorted full rankings.
func Less(a, b Item) bool {
	if a.Score != b.Score { //lsilint:ignore floatcmp — total-order tie-break needs bit equality
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// Sort orders items into ranking order (score desc, doc asc).
func Sort(items []Item) {
	sort.Slice(items, func(i, j int) bool { return Less(items[i], items[j]) })
}

// selectParallelCutoff is the element count above which TopK shards the
// scan across goroutines; selection is cheap per element, so small inputs
// stay serial.
const selectParallelCutoff = 1 << 14

// TopK selects the k best (score, doc) pairs in ranking order. ids maps
// position → document id (nil for identity). The result equals sorting
// everything with Less and truncating to k — including tie order —
// because selection under a strict total order is permutation-invariant.
func TopK(scores []float64, ids []int, k int) []Item {
	return TopKSkip(scores, ids, k, nil)
}

// TopKSkip is TopK with positions in skip excluded from selection, as if
// those entries were not present: they are never offered, and k clamps to
// the live count. A nil skip is exactly TopK.
func TopKSkip(scores []float64, ids []int, k int, skip Skip) []Item {
	n := len(scores)
	if live := n - skip.CountUpTo(n); k > live {
		k = live
	}
	if k <= 0 {
		return []Item{}
	}
	return runSpans(n, k, n >= selectParallelCutoff, func(s *selector, lo, hi int) {
		offerScores(s, scores, ids, skip, lo, hi)
	})
}

// parallelRange is the package's one goroutine fan-out: it calls fn over
// contiguous chunks covering [0, n) — one per GOMAXPROCS worker when
// parallel says the work is big enough to pay for the goroutines, else
// fn(0, n) on the caller's goroutine — and returns when every call has.
// fn must write only state owned by its own chunk; per-row results are
// then independent of the worker count.
func parallelRange(n int, parallel bool, fn func(lo, hi int)) {
	nw := runtime.GOMAXPROCS(0)
	if !parallel || nw < 2 || n < 2 {
		fn(0, n)
		return
	}
	if nw > n {
		nw = n
	}
	var wg sync.WaitGroup
	chunk := (n + nw - 1) / nw
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, minInt(lo+chunk, n))
	}
	wg.Wait()
}

// runSpans is the package's one selector fan-out: parallelRange over
// rows [0, n) with one bounded selector per span, merged under the usual
// total order into the top-k. The kernel must be deterministic per row;
// the merge then makes the result independent of the worker count.
func runSpans(n, k int, parallel bool, kernel func(s *selector, lo, hi int)) []Item {
	var mu sync.Mutex
	var sels []*selector
	parallelRange(n, parallel, func(lo, hi int) {
		s := newSelector(k)
		kernel(s, lo, hi)
		mu.Lock()
		sels = append(sels, s)
		mu.Unlock()
	})
	if len(sels) == 1 {
		return sels[0].finish()
	}
	return mergeSelectors(sels, k)
}

// offerScores feeds scores[lo:hi] through the selector, honoring the skip
// set. The nil-skip branch is hoisted out of the loop so the delete-free
// path pays nothing per element.
//
//lsilint:noalloc
func offerScores(s *selector, scores []float64, ids []int, skip Skip, lo, hi int) {
	if skip == nil {
		for i := lo; i < hi; i++ {
			s.offer(Item{Doc: docID(ids, i), Score: scores[i]})
		}
		return
	}
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		s.offer(Item{Doc: docID(ids, i), Score: scores[i]})
	}
}

func docID(ids []int, i int) int {
	if ids == nil {
		return i
	}
	return ids[i]
}

// MergeTopK merges per-source rankings into the global top-k under the
// package's total order: concatenate, sort with Less, truncate. Because
// Less is a strict total order, selection is permutation-invariant — as
// long as each list holds an exact local top-k (or everything its source
// has, when the source is smaller than k), the merge equals sorting the
// union of all source items and truncating to k, tie order included.
// This is the identity both the in-engine barrier merge (per-worker
// selector survivors) and the sharded scatter–gather tier
// (internal/shard, per-shard exact top-ks) rely on for byte-exact
// results. The input lists are not mutated.
func MergeTopK(k int, lists ...[]Item) []Item {
	if k <= 0 {
		return []Item{}
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]Item, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	Sort(all)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// mergeSelectors merges the per-worker survivors (≤ k each) through
// MergeTopK: the global top-k is a subset of the union of the per-shard
// top-ks.
func mergeSelectors(sels []*selector, k int) []Item {
	lists := make([][]Item, 0, len(sels))
	for _, s := range sels {
		lists = append(lists, s.h)
	}
	return MergeTopK(k, lists...)
}

// selector is a bounded min-heap on the ranking order: h[0] is the
// currently-worst kept item, evicted when a strictly better one arrives.
type selector struct {
	k int
	h []Item
}

func newSelector(k int) *selector {
	return &selector{k: k, h: make([]Item, 0, k)}
}

// after reports whether a ranks strictly after b — the heap's "less".
func after(a, b Item) bool { return Less(b, a) }

// offer runs once per candidate on every scoring hot path. Its body is
// only the common case of a long scan — the heap is full and the score is
// below the worst kept one — so that it inlines into the scan loops; push
// decides everything else, ties included.
//
//lsilint:noalloc
func (s *selector) offer(it Item) {
	if len(s.h) == s.k && it.Score < s.h[0].Score {
		return
	}
	s.push(it)
}

// push is offer's slow path. It must not allocate: the heap slice is
// created with capacity k in newSelector and the append below can never
// grow it past that.
//
//lsilint:noalloc
func (s *selector) push(it Item) {
	if len(s.h) < s.k {
		// Capacity k is pre-claimed in newSelector; this append only extends
		// the length within it and never reallocates.
		s.h = append(s.h, it) //lsilint:ignore noalloc

		s.up(len(s.h) - 1)
		return
	}
	if Less(it, s.h[0]) {
		s.h[0] = it
		s.down(0)
	}
}

func (s *selector) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !after(s.h[i], s.h[p]) {
			break
		}
		s.h[i], s.h[p] = s.h[p], s.h[i]
		i = p
	}
}

func (s *selector) down(i int) {
	n := len(s.h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && after(s.h[l], s.h[worst]) {
			worst = l
		}
		if r < n && after(s.h[r], s.h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.h[i], s.h[worst] = s.h[worst], s.h[i]
		i = worst
	}
}

// threshold returns the kth-best score offered so far — what a new item
// must beat to enter — or −∞ while fewer than k items have been seen.
func (s *selector) threshold() float64 {
	if len(s.h) < s.k {
		return math.Inf(-1)
	}
	return s.h[0].Score
}

// finish returns the kept items in ranking order.
func (s *selector) finish() []Item {
	Sort(s.h)
	return s.h
}
