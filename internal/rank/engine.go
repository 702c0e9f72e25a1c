package rank

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dense"
)

// scoreParallelCutoff is the doc-count × dim work size above which score
// scans fan out across goroutines; one dot product is ~2·dim flops, so
// small collections stay serial.
const scoreParallelCutoff = 1 << 15

// Engine scores queries against a unit-normalized copy of a document
// matrix. Rows are normalized once at construction, so a query cosine is
// a single dot product against each row. Alongside the float64 cache the
// engine keeps a float32 screening mirror (same values rounded to half
// the bytes, plus a per-row quantization residual) that TopK/TopKBatch
// scan first, rescoring only provable candidates in float64 — results
// stay byte-identical to the pure float64 path while the first pass
// moves half the memory traffic (see screen.go). Engines are immutable
// from a reader's point of view: Extend returns a new Engine, which is
// what lets concurrent readers keep using a snapshot while a writer
// swaps in an extended one.
//
//lsilint:immutable
type Engine struct {
	docs *dense.Matrix // n×dim; rows unit-normalized (zero rows stay zero)
	// mir is the float32 screening mirror; nil on engines built with
	// NewEngineExact, which serve every query through the float64 path.
	mir *mirror
	// claimed tracks, for the backing allocation under docs.Data, how many
	// elements have been handed out to some Engine in the sharing chain.
	// Extend appends new rows into the allocation's spare capacity only
	// after winning a compare-and-swap from this engine's own length — so
	// exactly one successor per chain link reuses the tail, and a second
	// Extend of the same engine (or of an ancestor) falls back to copying.
	// The mirror's arrays are allocated with matching capacities and
	// written in lockstep, so the same CAS guards their tails too.
	claimed *atomic.Int64
	// ivf is the optional cluster index over a row prefix (see ivf.go);
	// nil engines scan every mirror row. It propagates through Extend —
	// the prefix it describes is append-only — and rows past ivf.Rows()
	// form the always-scanned unclustered tail.
	ivf *IVFIndex
}

// newEngineFor wraps an already-normalized matrix whose backing slice is
// exclusively owned by the new engine, building the screening mirror
// (and, when withInt8, the int8 coarse tier) unless the engine is
// exact-only.
func newEngineFor(docs *dense.Matrix, withMirror, withInt8 bool) *Engine {
	claimed := new(atomic.Int64)
	claimed.Store(int64(len(docs.Data)))
	e := &Engine{docs: docs, claimed: claimed}
	if withMirror {
		e.mir = buildMirror(docs, withInt8)
	}
	return e
}

// NewEngine builds the normalized cache — with its float32 screening
// mirror and int8 coarse tier — from an n×dim matrix of document
// vectors (a copy; the input is not retained or mutated).
func NewEngine(vectors *dense.Matrix) *Engine {
	return newEngine(vectors, true, true)
}

// NewEngineExact is NewEngine without any screening tier: every query
// runs the float64 path directly. It trades the multi-stage speedup for
// less memory — the opt-out behind the server's screening flag, and the
// reference the parity tests pin the screened paths against.
func NewEngineExact(vectors *dense.Matrix) *Engine {
	return newEngine(vectors, false, false)
}

func newEngine(vectors *dense.Matrix, withMirror, withInt8 bool) *Engine {
	docs := vectors.Clone()
	for i := 0; i < docs.Rows; i++ {
		dense.Normalize(docs.Row(i))
	}
	return newEngineFor(docs, withMirror, withInt8)
}

// Screening reports whether this engine carries a float32 screening
// mirror (it may still serve small collections through the exact path).
func (e *Engine) Screening() bool { return e.mir != nil }

// Int8Screening reports whether this engine carries the int8 coarse
// tier in front of the float32 mirror. It can be false on a screening
// engine when the row width exceeds dense.MaxI8Dim (the integer dot
// could overflow).
func (e *Engine) Int8Screening() bool { return e.mir != nil && e.mir.q8 != nil }

// Extend returns a new Engine covering the old documents plus the given
// newly-appended rows — the incremental path for folding-in, which only
// ever appends document vectors.
//
// The float64 rows go through dense.ClaimAppend: when the backing
// allocation has spare capacity and no other engine in the sharing chain
// has claimed it, the new rows are written into that tail and the
// returned Engine shares the prefix storage — an O(new rows) append
// instead of an O(all rows) copy, which is what keeps per-batch snapshot
// publication cheap as a collection grows. The screening mirror extends
// the same way: its arrays carry matching spare capacity, and the claim
// CAS covers their tails as well, so mirror rows stay bit-equal to the
// float32 conversion of the float64 rows along every chain. On the copy
// path the old rows' mirror and quantized tiers are copied, not derived
// again — they are functions of float64 rows the copy carries bit for
// bit — and only the new rows are converted. Existing readers are
// unaffected: they only ever touch rows below their own length, and the
// tail is written before the new Engine is published (callers hand the
// result to readers through a synchronized publish such as an atomic
// snapshot pointer or a mutex, which orders the writes).
func (e *Engine) Extend(more *dense.Matrix) *Engine {
	if more.Cols != e.docs.Cols {
		panic(fmt.Sprintf("rank: Extend dim %d want %d", more.Cols, e.docs.Cols))
	}
	oldRows := e.docs.Rows
	data, claimed, shared := dense.ClaimAppend(e.docs.Data, e.claimed, len(more.Data))
	copy(data[len(e.docs.Data):], more.Data)
	docs := &dense.Matrix{Rows: oldRows + more.Rows, Cols: e.docs.Cols, Data: data}
	for i := oldRows; i < docs.Rows; i++ {
		dense.Normalize(docs.Row(i))
	}
	// The cluster index describes a row prefix whose values are identical
	// on both paths, so it stays valid.
	next := &Engine{docs: docs, claimed: claimed, ivf: e.ivf}
	switch {
	case e.mir == nil:
	case shared:
		next.mir = e.mir.extendShared(docs, oldRows)
	default:
		next.mir = e.mir.extendCopy(docs, oldRows)
	}
	return next
}

// NumDocs returns how many document rows the engine covers.
func (e *Engine) NumDocs() int { return e.docs.Rows }

// Dim returns the vector dimensionality.
func (e *Engine) Dim() int { return e.docs.Cols }

// normalizeCopy returns q scaled to unit norm as a fresh slice (zero
// vectors stay zero, matching the cosine convention that a zero operand
// scores 0 everywhere).
func normalizeCopy(q []float64) []float64 {
	qn := append([]float64(nil), q...)
	dense.Normalize(qn)
	return qn
}

// Scores returns the cosine of q against every document: one dot product
// per row against the normalized cache. Every score is materialized, so
// there is nothing for screening to skip — this is always the float64
// path.
func (e *Engine) Scores(q []float64) []float64 {
	if len(q) != e.docs.Cols {
		panic(fmt.Sprintf("rank: query dim %d want %d", len(q), e.docs.Cols))
	}
	out := make([]float64, e.docs.Rows)
	qn := normalizeCopy(q)
	e.scoreRange(out, qn)
	return out
}

// scoreSpan writes the cosine of qn against document rows [lo, hi) into
// out — the serial kernel every scoring goroutine runs, so it must not
// allocate per call.
//
//lsilint:noalloc
func (e *Engine) scoreSpan(out, qn []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = dense.Dot(qn, e.docs.Row(i))
	}
}

// offerSpan scores rows [lo, hi) and feeds them through the bounded
// selector — the fused score+select kernel behind exact TopK shards.
// Skipped (tombstoned) rows are never scored or offered; the nil-skip
// branch is hoisted so the delete-free path is unchanged.
//
//lsilint:noalloc
func (e *Engine) offerSpan(s *selector, qn []float64, lo, hi int, skip Skip) {
	if skip == nil {
		for i := lo; i < hi; i++ {
			s.offer(Item{Doc: i, Score: dense.Dot(qn, e.docs.Row(i))})
		}
		return
	}
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		s.offer(Item{Doc: i, Score: dense.Dot(qn, e.docs.Row(i))})
	}
}

func (e *Engine) scoreRange(out []float64, qn []float64) {
	n := e.docs.Rows
	parallelRange(n, n*e.docs.Cols >= scoreParallelCutoff, func(lo, hi int) {
		e.scoreSpan(out, qn, lo, hi)
	})
}

// TopK returns the k best documents for q in ranking order, screening
// through the float32 mirror when profitable and rescoring candidates in
// float64 — byte-identical to the exact path either way.
func (e *Engine) TopK(q []float64, k int) []Item {
	items, _ := e.TopKWithStats(q, k)
	return items
}

// TopKWithStats is TopK plus a report of what the two-stage path did —
// whether screening ran and how many rows were rescored exactly. The
// items are identical to TopK's.
func (e *Engine) TopKWithStats(q []float64, k int) ([]Item, ScreenStats) {
	return e.TopKSkipWithStats(q, k, nil)
}

// TopKSkip is TopK with the rows in skip excluded — the tombstone-aware
// entry point of the serving tier. Skipped rows behave as if they were
// never inserted: they are not scored, not offered, and cannot seed a
// certified screening threshold, so the result is byte-identical (after
// index mapping) to an engine built without those rows. A nil skip is
// exactly TopK.
func (e *Engine) TopKSkip(q []float64, k int, skip Skip) []Item {
	items, _ := e.TopKSkipWithStats(q, k, skip)
	return items
}

// TopKSkipWithStats is TopKSkip plus the scan report: TopKProbeSkip under
// the attached index's own probe budget.
func (e *Engine) TopKSkipWithStats(q []float64, k int, skip Skip) ([]Item, ScreenStats) {
	return e.TopKProbeSkip(q, k, e.nprobe(), skip)
}

// nprobe is the probe budget the attached index was built with (0 =
// exact, also without an index).
func (e *Engine) nprobe() int {
	if e.ivf == nil {
		return 0
	}
	return e.ivf.nprobe
}

// topKExact is the pure float64 path: scoring and selection fused per
// worker — each shard scores its rows into a bounded heap, and the shard
// survivors merge at the barrier; the full score vector is never
// materialized.
func (e *Engine) topKExact(qn []float64, k int, skip Skip) []Item {
	n := e.docs.Rows
	return runSpans(n, k, n*e.docs.Cols >= scoreParallelCutoff, func(s *selector, lo, hi int) {
		e.offerSpan(s, qn, lo, hi, skip)
	})
}

// batchBlock bounds how many queries are scored per gemm so the score
// block stays a few MB even against very large collections.
const batchBlock = 32

// TopKBatch ranks every row of queries (q×dim) against the documents.
// A screening engine runs the single-query scan once per query, fanned
// across workers: cell pruning is a per-query decision, and without an
// index a shared first-tier gemm measures no faster than the scans (see
// docs/ALGORITHMS.md, "Scan pipeline"). An exact engine scores each block
// of queries as one float64 gemm Q·D̂ᵀ feeding bounded selection.
// Per-element summation order of every float64 score matches the
// single-query dot products, so results are byte-identical to calling
// TopK per query — screened or not.
func (e *Engine) TopKBatch(queries *dense.Matrix, k int) [][]Item {
	out, _ := e.TopKBatchWithStats(queries, k)
	return out
}

// TopKBatchWithStats is TopKBatch plus one ScreenStats per query row,
// reporting what each query's scan did. The items are identical to
// TopKBatch's.
func (e *Engine) TopKBatchWithStats(queries *dense.Matrix, k int) ([][]Item, []ScreenStats) {
	return e.TopKBatchSkipWithStats(queries, k, nil)
}

// TopKBatchSkipWithStats is TopKBatchWithStats with the rows in skip
// excluded from every query of the batch — per-row results and stats are
// identical to calling TopKSkipWithStats per query.
func (e *Engine) TopKBatchSkipWithStats(queries *dense.Matrix, k int, skip Skip) ([][]Item, []ScreenStats) {
	if queries.Cols != e.docs.Cols {
		panic(fmt.Sprintf("rank: batch query dim %d want %d", queries.Cols, e.docs.Cols))
	}
	out := make([][]Item, queries.Rows)
	stats := make([]ScreenStats, queries.Rows)
	if queries.Rows == 0 {
		return out, stats
	}
	live := e.docs.Rows - skip.CountUpTo(e.docs.Rows)
	if kk := minInt(k, live); kk > 0 && e.screenable(kk) {
		// Queries fan out instead of spans; a lone query keeps the span
		// fan-out a single TopK would get.
		spans := queries.Rows == 1
		parallelRange(queries.Rows, true, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i], stats[i] = e.scan(normalizeCopy(queries.Row(i)), kk, e.nprobe(), skip, spans)
			}
		})
		return out, stats
	}
	scores := dense.New(minInt(batchBlock, queries.Rows), e.docs.Rows)
	for b0 := 0; b0 < queries.Rows; b0 += batchBlock {
		b1 := b0 + batchBlock
		if b1 > queries.Rows {
			b1 = queries.Rows
		}
		qn := queries.Slice(b0, b1, 0, queries.Cols)
		for r := 0; r < qn.Rows; r++ {
			dense.Normalize(qn.Row(r))
		}
		block := scores
		if qn.Rows != scores.Rows {
			// Final ragged block: a row-prefix view of the existing buffer —
			// same backing array, no fresh allocation.
			block = &dense.Matrix{Rows: qn.Rows, Cols: scores.Cols, Data: scores.Data[:qn.Rows*scores.Cols]}
		}
		dense.MulBTInto(block, qn, e.docs)
		for r := 0; r < qn.Rows; r++ {
			out[b0+r] = TopKSkip(block.Row(r), nil, k, skip)
		}
	}
	return out, stats
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
