package rank

import (
	"sync"

	"repro/internal/dense"
)

// Three-tier exact top-k: before the float32 screening bracket of
// screen.go runs, an int8 scalar-quantized tier is scanned at one byte
// per coordinate. Each document row v (float64, unit-normalized) stores
// a quantized copy q8 with scale s (v ≈ s·q8) and a certified residual
// ε8 = ‖v − s·q8‖₂; the query qn quantizes the same way to (qq8, sq)
// with residual rq8 = ‖qn − sq·qq8‖₂. The integer dot d = q8·qq8 is
// EXACT (int32 accumulation never rounds), so the coarse score
//
//	c = fl(fl(s·sq)·float64(d)) ≈ (s·q8)·(sq·qq8)
//
// differs from the exact float64 score fl64(qn·v) by at most
//
//	|fl64(qn·v) − c|
//	  ≤ γ64·‖qn‖·‖v‖                  (float64 summation rounding)
//	  + ‖qn − sq·qq8‖·‖v‖             (query quantization, Cauchy–Schwarz)
//	  + ‖sq·qq8‖·‖v − s·q8‖           (row quantization, Cauchy–Schwarz)
//	  + ~3u64·‖s·q8‖·‖sq·qq8‖         (rounding of c's two multiplies)
//
// using ‖v‖ ≤ 1, ‖sq·qq8‖ ≤ 1 + rq8 and ‖s·q8‖ ≤ 1 + maxEps8. The
// per-row part collapses to ε8·epsMul with epsMul = (1 + rq8)·slop and
// everything else to one query-time scalar slack8, giving certified
// brackets lb8 = c − ε8·epsMul − slack8 ≤ fl64(qn·v) ≤ ub8 = c +
// ε8·epsMul + slack8 (every piece boundSlack-inflated so the float64
// rounding of evaluating the bound itself can never shave a candidate).
//
// The promotion argument stacks thresholds. Let L8 be the kth largest
// lb8 over the live rows. Every true top-k row j has ub8_j ≥ s64_j ≥
// (kth best exact) ≥ L8 — the same order-statistic step as screen.go —
// so the promoted set {ub8 ≥ L8} contains the true top-k, and it holds
// at least k rows (the k rows seeding L8 promote themselves: ub8 ≥
// lb8 ≥ L8). Promoted rows get the float32 screened score and its
// bracket; L32, the kth largest float32 lower bound OVER THE PROMOTED
// SET, satisfies L32 ≤ kth largest exact score of the promoted set ≤
// kth best exact score overall (lower bounds are pointwise dominated,
// and a subset's kth largest never exceeds the superset's). Rescoring
// exactly the promoted rows with ub32 ≥ L32 under the usual total order
// therefore reproduces the full float64 selection bit for bit — pinned
// against NewEngineExact by the parity suites. See docs/ALGORITHMS.md.

// q8query is the quantized query state one three-tier scan works from.
type q8query struct {
	qq8 []int8
	q32 []float32
	// sq is the query's quantization scale; a row's coarse score is
	// scale[i]·sq·float64(dot8).
	sq float64
	// epsMul scales every stored per-row residual ε8 at query time:
	// (1 + rq8)·boundSlack, the ‖sq·qq8‖ factor of the Cauchy–Schwarz
	// term.
	epsMul float64
	// slack8 is the query-level remainder of the coarse bound: query
	// residual, float64 summation rounding, and the rounding of the
	// coarse score's own arithmetic.
	slack8 float64
	// slack32 is the float32 bracket's query-level slack (screenSlack) —
	// carried here so the promotion pass needs no recomputation.
	slack32 float64
}

// quantizeQuery builds the three-tier query state: int8 quantization
// plus the float32 mirror conversion the promotion bracket needs.
func (e *Engine) quantizeQuery(qn []float64) *q8query {
	q := &q8query{
		qq8: make([]int8, len(qn)),
		q32: make([]float32, len(qn)),
	}
	dense.ConvertF32(q.q32, qn)
	q.sq = dense.QuantizeI8(q.qq8, qn)
	rq8 := dense.ResidualI8(qn, q.qq8, q.sq) * boundSlack
	n1 := float64(len(qn) + 1)
	const u64 = 0x1p-53
	g64 := n1 * u64 / (1 - n1*u64)
	q.epsMul = (1 + rq8) * boundSlack
	q.slack8 = (rq8 + g64*(1+1e-12) + 4*u64*(1+e.mir.maxEps8)*(1+rq8)) * boundSlack
	q.slack32 = e.screenSlack(qn, q.q32)
	return q
}

// screen8Buf recycles the per-query three-tier buffers: the raw integer
// dot of every row (stage 1) and the float32 screened score of every
// promoted row (stage 2), sized to the largest collection served.
type screen8Buf struct {
	d8  []int32
	s32 []float32
}

var screen8Pool = sync.Pool{New: func() any { return new(screen8Buf) }}

func getScreen8Buf(n int) *screen8Buf {
	b := screen8Pool.Get().(*screen8Buf)
	if cap(b.d8) < n {
		b.d8 = make([]int32, n)
		b.s32 = make([]float32, n)
	}
	b.d8 = b.d8[:n]
	b.s32 = b.s32[:n]
	return b
}

// topKScreened8 runs the three-tier scan for a normalized query.
// Callers guarantee screenable(k), mir.q8 != nil, and k ≤ live rows.
// Skipped rows are never scored on any tier: their buffer entries stay
// stale, which is safe because every later read is guarded by the same
// skip test.
func (e *Engine) topKScreened8(qn []float64, k int, skip Skip) ([]Item, ScreenStats) {
	q := e.quantizeQuery(qn)
	n := e.docs.Rows
	buf := getScreen8Buf(n)
	lb8, _ := runSpans(n, k, n*e.docs.Cols >= scoreParallelCutoff, func(s *selector, lo, hi int) int {
		e.screen8Span(s, buf.d8, q, lo, hi, skip)
		return 0
	})
	items, st := e.promoteRescore8(buf.d8, buf.s32, qn, q, k, lb8[k-1].Score, skip)
	screen8Pool.Put(buf)
	return items, st
}

// promoteRescore8 runs stages 2 and 3 over raw integer dots d8 (every
// live row scored; stale entries only where skip guards them): promote
// rows whose coarse upper bound clears low8 to the float32 bracket,
// derive the float32 threshold from the promoted set, and rescore its
// survivors in float64 — the same dense.Dot the exact path uses.
func (e *Engine) promoteRescore8(d8 []int32, s32 []float32, qn []float64, q *q8query, k int, low8 float64, skip Skip) ([]Item, ScreenStats) {
	n := e.docs.Rows
	work := n*e.docs.Cols >= scoreParallelCutoff
	lb32, promoted := runSpans(n, k, work, func(s *selector, lo, hi int) int {
		return e.promote8Span(s, d8, s32, q, low8, lo, hi, skip)
	})
	low32 := lb32[k-1].Score
	items, cands := runSpans(n, k, work, func(s *selector, lo, hi int) int {
		return e.rescore8Span(s, d8, s32, qn, q, low8, low32, lo, hi, skip)
	})
	scanned := n - skip.CountUpTo(n)
	return items, ScreenStats{Screened: true, Candidates: cands, Promoted: promoted, ScannedRows: scanned}
}

// screen8Span is the stage-1 kernel: exact integer dot against int8
// rows [lo, hi), recording the raw dot and feeding the certified coarse
// lower bound through the selector.
//
//lsilint:noalloc
func (e *Engine) screen8Span(s *selector, d8 []int32, q *q8query, lo, hi int, skip Skip) {
	mir := e.mir
	if skip == nil {
		for i := lo; i < hi; i++ {
			d := dense.DotI8(q.qq8, mir.q8.Row(i))
			d8[i] = d
			c := mir.scale[i] * q.sq * float64(d)
			s.offer(Item{Doc: i, Score: c - mir.eps8[i]*q.epsMul - q.slack8})
		}
		return
	}
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		d := dense.DotI8(q.qq8, mir.q8.Row(i))
		d8[i] = d
		c := mir.scale[i] * q.sq * float64(d)
		s.offer(Item{Doc: i, Score: c - mir.eps8[i]*q.epsMul - q.slack8})
	}
}

// promote8Span is the stage-2 kernel: rows whose coarse upper bound
// clears low8 get the float32 screened score, recorded for stage 3, and
// their certified float32 lower bound offered through the selector.
// Returns how many rows promoted. (Skip.Has is nil-safe, and the coarse
// test already rejects almost every row, so the skip branch stays
// unhoisted here.)
//
//lsilint:noalloc
func (e *Engine) promote8Span(s *selector, d8 []int32, s32 []float32, q *q8query, low8 float64, lo, hi int, skip Skip) int {
	mir := e.mir
	promoted := 0
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		c := mir.scale[i] * q.sq * float64(d8[i])
		if c+mir.eps8[i]*q.epsMul+q.slack8 < low8 {
			continue
		}
		sc := dense.DotF32(q.q32, mir.docs.Row(i))
		s32[i] = sc
		promoted++
		s.offer(Item{Doc: i, Score: float64(sc) - mir.eps[i] - q.slack32})
	}
	return promoted
}

// rescore8Span is the stage-3 kernel: the coarse test gates which
// float32 entries are real, the float32 test gates the exact float64
// rescore. Returns how many rows were rescored.
//
//lsilint:noalloc
func (e *Engine) rescore8Span(s *selector, d8 []int32, s32 []float32, qn []float64, q *q8query, low8, low32 float64, lo, hi int, skip Skip) int {
	mir := e.mir
	cands := 0
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		c := mir.scale[i] * q.sq * float64(d8[i])
		if c+mir.eps8[i]*q.epsMul+q.slack8 < low8 {
			continue
		}
		if float64(s32[i])+mir.eps[i]+q.slack32 < low32 {
			continue
		}
		s.offer(Item{Doc: i, Score: dense.Dot(qn, e.docs.Row(i))})
		cands++
	}
	return cands
}

// lbThreshold8 computes the coarse threshold for a row of raw integer
// dots already produced by the batched int8 gemm: the kth largest
// certified coarse lower bound over the live entries. Callers clamp
// k ≤ live, so at least k bounds are offered.
func (e *Engine) lbThreshold8(d8 []int32, q *q8query, k int, skip Skip) float64 {
	n := len(d8)
	items, _ := runSpans(n, k, n >= selectParallelCutoff, func(s *selector, lo, hi int) int {
		e.lb8Span(s, d8, q, lo, hi, skip)
		return 0
	})
	return items[k-1].Score
}

// lb8Span offers the certified coarse lower bound of already-scored
// live rows [lo, hi) through the selector — a skipped row must not seed
// the threshold.
//
//lsilint:noalloc
func (e *Engine) lb8Span(s *selector, d8 []int32, q *q8query, lo, hi int, skip Skip) {
	mir := e.mir
	if skip == nil {
		for i := lo; i < hi; i++ {
			c := mir.scale[i] * q.sq * float64(d8[i])
			s.offer(Item{Doc: i, Score: c - mir.eps8[i]*q.epsMul - q.slack8})
		}
		return
	}
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		c := mir.scale[i] * q.sq * float64(d8[i])
		s.offer(Item{Doc: i, Score: c - mir.eps8[i]*q.epsMul - q.slack8})
	}
}

// topKBatchScreened8 fills out with the three-tier batch path: one
// integer gemm per query block against the int8 tier, then the per-row
// promote-and-rescore. The gemm covers every row (skipped rows are
// pruned at selection, not scoring — a gemm gather would cost more than
// it saves); every later stage honors the skip set. Callers guarantee
// screenable(k), mir.q8 != nil, and 0 < k ≤ live rows.
func (e *Engine) topKBatchScreened8(out [][]Item, stats []ScreenStats, queries *dense.Matrix, k int, skip Skip) {
	blockRows := minInt(batchBlock, queries.Rows)
	scores := dense.NewI32(blockRows, e.docs.Rows)
	qq8s := dense.NewI8(blockRows, queries.Cols)
	for b0 := 0; b0 < queries.Rows; b0 += batchBlock {
		b1 := b0 + batchBlock
		if b1 > queries.Rows {
			b1 = queries.Rows
		}
		qn := queries.Slice(b0, b1, 0, queries.Cols)
		block, qq8blk := scores, qq8s
		if qn.Rows != scores.Rows {
			// Final ragged block: row-prefix views of the existing buffers.
			block = &dense.MatrixI32{Rows: qn.Rows, Cols: scores.Cols, Data: scores.Data[:qn.Rows*scores.Cols]}
			qq8blk = &dense.MatrixI8{Rows: qn.Rows, Cols: qq8s.Cols, Data: qq8s.Data[:qn.Rows*qq8s.Cols]}
		}
		qs := make([]*q8query, qn.Rows)
		for r := 0; r < qn.Rows; r++ {
			dense.Normalize(qn.Row(r))
			qs[r] = e.quantizeQuery(qn.Row(r))
			copy(qq8blk.Row(r), qs[r].qq8)
		}
		dense.MulBTI8Into(block, qq8blk, e.mir.q8)
		for r := 0; r < qn.Rows; r++ {
			q := qs[r]
			low8 := e.lbThreshold8(block.Row(r), q, k, skip)
			s32p := getScreenBuf(e.docs.Rows)
			out[b0+r], stats[b0+r] = e.promoteRescore8(block.Row(r), *s32p, qn.Row(r), q, k, low8, skip)
			screenBuf.Put(s32p)
		}
	}
}
