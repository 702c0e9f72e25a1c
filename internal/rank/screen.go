package rank

import (
	"math"
	"sync"

	"repro/internal/dense"
)

// Two-stage exact top-k: a float32 screening mirror of the normalized
// document cache is scanned first (half the memory traffic, unrolled
// float32 dot products), and only rows whose screened score could — under
// a provable rounding bound — still reach the running kth-best are
// rescored with the float64 kernels. The final result is byte-identical
// to the pure float64 path (pinned by test): the rescore uses exactly the
// dense.Dot the exact path uses, and the candidate set provably contains
// every true top-k row.
//
// The bound, per document row v (float64, unit-normalized) with float32
// mirror v32, query qn (float64, unit-normalized) with mirror q32:
//
//	|fl64(qn·v) − fl32(q32·v32)|
//	  ≤ γ64·‖qn‖·‖v‖            (float64 summation rounding)
//	  + ‖qn‖·‖v − v32‖          (row quantization, Cauchy–Schwarz)
//	  + ‖qn − q32‖·‖v32‖        (query quantization, Cauchy–Schwarz)
//	  + γ32·‖q32‖·‖v32‖         (float32 summation rounding)
//
// with γp = (n+1)·u_p/(1 − (n+1)·u_p) the standard dot-product bound for
// any summation order (u32 = 2⁻²⁴, u64 = 2⁻⁵³). The row residual
// ‖v − v32‖ is computed once per row when the mirror is built or
// extended; everything else collapses to one query-time scalar using
// ‖v‖ ≤ 1 and ‖v32‖ ≤ 1 + maxEps. Both pieces are inflated by boundSlack
// to absorb the float64 rounding of evaluating the bound itself.
//
// Screening then works on certified brackets: lb_i = s32_i − ε_i is a
// lower bound and ub_i = s32_i + ε_i an upper bound on the exact float64
// score of row i. Let L be the kth largest lb. Every true top-k row j has
// s64_j ≥ (kth largest s64) ≥ L, hence ub_j ≥ s64_j ≥ L — so rescoring
// exactly the rows with ub_i ≥ L (ties included, because the comparison
// is ≥) and selecting among them under the usual total order reproduces
// the full float64 selection bit for bit.

// boundSlack inflates every computed error bound so the float64 rounding
// of the bound arithmetic itself (relative error ~1e-16 per operation)
// can never shave a true candidate below the threshold.
const boundSlack = 1 + 1e-9

// screenCutoff is the docs×dim element count below which TopK skips the
// two-stage path: tiny collections fit in cache, where the mirror's
// bandwidth saving cannot pay for the second pass over the score buffer.
const screenCutoff = 1 << 14

// mirror is the float32 screening companion of the float64 cache. Its
// backing slices are allocated with the same element capacity as the
// float64 allocation and extended in lockstep along the same
// capacity-claiming chain, so a single CAS on Engine.claimed guards the
// tails of all three arrays.
//
//lsilint:immutable
type mirror struct {
	docs *dense.MatrixF32 // row-converted float32 copy of the float64 rows
	// eps[i] = ‖row64_i − row32_i‖₂ · boundSlack: the per-row worst-case
	// quantization residual, computed once at build/extend time.
	eps []float64
	// maxEps bounds ‖row32‖ ≤ ‖row64‖ + ‖row64 − row32‖ ≤ 1 + maxEps for
	// every row, monotone along an Extend chain.
	maxEps float64
	// q8 is the optional int8 coarse tier: the symmetric scalar
	// quantization of each float64 row (q8[i][j] = round(row64[i][j] /
	// scale[i]), see dense.QuantizeI8), scanned before the float32 bracket
	// at one byte per coordinate. Nil when the engine carries no int8
	// tier; the bracket machinery is in screen8.go.
	q8 *dense.MatrixI8
	// scale[i] is row i's quantization scale (max|row|/127; 0 for a zero
	// row).
	scale []float64
	// eps8[i] = ‖row64_i − scale_i·q8_i‖₂ · boundSlack: the certified
	// per-row int8 quantization residual — the ε of the coarse bracket.
	eps8 []float64
	// maxEps8 bounds ‖scale_i·q8_i‖ ≤ 1 + maxEps8 for every row, monotone
	// along an Extend chain, like maxEps for the float32 tier.
	maxEps8 float64
}

// buildMirror converts every row of docs, allocating the float32 data —
// and, when withInt8, the int8 tier — plus per-row residuals with
// capacities matching cap(docs.Data) so the mirror can ride the same
// spare-capacity claim chain as the float64 cache. Rows wider than
// dense.MaxI8Dim never get an int8 tier (the integer dot could
// overflow); they keep the two-tier path.
func buildMirror(docs *dense.Matrix, withInt8 bool) *mirror {
	capElems := cap(docs.Data)
	capRows := docs.Rows
	if docs.Cols > 0 {
		capRows = capElems / docs.Cols
	}
	m := &mirror{
		docs: &dense.MatrixF32{Rows: docs.Rows, Cols: docs.Cols,
			Data: make([]float32, len(docs.Data), capElems)},
		eps: make([]float64, docs.Rows, capRows),
	}
	if withInt8 && docs.Cols <= dense.MaxI8Dim {
		m.q8 = &dense.MatrixI8{Rows: docs.Rows, Cols: docs.Cols,
			Data: make([]int8, len(docs.Data), capElems)}
		m.scale = make([]float64, docs.Rows, capRows)
		m.eps8 = make([]float64, docs.Rows, capRows)
	}
	m.fillRows(docs, 0)
	return m
}

// fillRows converts rows [from, docs.Rows) from the float64 cache into
// the mirror's (already sized) slices and folds their residuals into
// maxEps/maxEps8. Callers guarantee exclusive ownership of that row
// range.
func (m *mirror) fillRows(docs *dense.Matrix, from int) {
	for i := from; i < docs.Rows; i++ {
		r64 := docs.Row(i)
		r32 := m.docs.Row(i)
		dense.ConvertF32(r32, r64)
		e := dense.ResidualF32(r64, r32) * boundSlack
		m.eps[i] = e
		if e > m.maxEps {
			m.maxEps = e
		}
		if m.q8 == nil {
			continue
		}
		r8 := m.q8.Row(i)
		s := dense.QuantizeI8(r8, r64)
		m.scale[i] = s
		e8 := dense.ResidualI8(r64, r8, s) * boundSlack
		m.eps8[i] = e8
		if e8 > m.maxEps8 {
			m.maxEps8 = e8
		}
	}
}

// extendShared returns a successor mirror covering docs (the already
// claimed, already written float64 matrix) by writing the new rows into
// this mirror's spare capacity — only the winner of the chain's claim
// CAS may call it, with oldRows the parent's row count.
func (m *mirror) extendShared(docs *dense.Matrix, oldRows int) *mirror {
	next := &mirror{
		docs: &dense.MatrixF32{Rows: docs.Rows, Cols: docs.Cols,
			Data: m.docs.Data[:len(docs.Data)]},
		eps:    m.eps[:docs.Rows],
		maxEps: m.maxEps,
	}
	if m.q8 != nil {
		next.q8 = &dense.MatrixI8{Rows: docs.Rows, Cols: docs.Cols,
			Data: m.q8.Data[:len(docs.Data)]}
		next.scale = m.scale[:docs.Rows]
		next.eps8 = m.eps8[:docs.Rows]
		next.maxEps8 = m.maxEps8
	}
	next.fillRows(docs, oldRows)
	return next
}

// ScreenStats describes what the two-stage path did for one query.
type ScreenStats struct {
	// Screened reports whether the float32 screening pass ran at all; a
	// false value means the exact float64 path served the query directly.
	Screened bool
	// Candidates is how many rows survived screening and were rescored in
	// float64 (k ≤ Candidates ≤ NumDocs when Screened).
	Candidates int
	// Promoted is how many rows the int8 coarse pass promoted to the
	// float32 bracket (Candidates ≤ Promoted when the int8 tier ran;
	// 0 on the two-tier and exact paths).
	Promoted int
	// ClustersTotal is how many IVF cells the engine's index holds; zero
	// when the query ran without a cluster index.
	ClustersTotal int
	// ClustersScanned is how many of those cells the scan actually
	// visited before the certified bound (or the nprobe cap) stopped it.
	ClustersScanned int
	// ScannedRows is how many mirror rows stage 1 touched: all of them on
	// the flat screening path, cluster members plus the unclustered tail
	// on the IVF path.
	ScannedRows int
}

// screenable reports whether a top-k query should take the two-stage
// path: there must be a mirror, the selection must be a strict subset
// (k ≥ n degenerates to a full scan where screening saves nothing), and
// the scan must be big enough for the saved bandwidth to matter.
func (e *Engine) screenable(k int) bool {
	return e.mir != nil && k < e.docs.Rows && e.docs.Cols > 0 &&
		e.docs.Rows*e.docs.Cols >= screenCutoff
}

// screenSlack computes the query-dependent part of the per-row error
// bound: everything in the bracket derivation above except the stored
// per-row residual.
func (e *Engine) screenSlack(qn []float64, q32 []float32) float64 {
	n1 := float64(len(qn) + 1)
	const u32, u64 = 0x1p-24, 0x1p-53
	g32 := n1 * u32 / (1 - n1*u32)
	g64 := n1 * u64 / (1 - n1*u64)
	rq := dense.ResidualF32(qn, q32)
	n32q := dense.Norm2F32(q32)
	nv32 := 1 + e.mir.maxEps // ‖row32‖ ≤ ‖row64‖ + residual
	return ((rq+g32*n32q)*nv32 + g64*(1+1e-12)) * boundSlack
}

// screenBuf recycles per-query float32 score buffers: one slot per
// concurrent query, each sized to the largest collection it has served,
// so steady-state screening allocates nothing proportional to n.
var screenBuf = sync.Pool{New: func() any { return new([]float32) }}

func getScreenBuf(n int) *[]float32 {
	p := screenBuf.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

// topKScreened runs the two-stage scan for a normalized query. Callers
// guarantee screenable(k) and k ≤ live rows. Skipped rows are never
// scored: stage 1 leaves their buf entry untouched (possibly stale pool
// data), which is safe because every later read of buf is guarded by the
// same skip test.
func (e *Engine) topKScreened(qn []float64, k int, skip Skip) ([]Item, ScreenStats) {
	q32 := make([]float32, len(qn))
	dense.ConvertF32(q32, qn)
	slack := e.screenSlack(qn, q32)
	bufp := getScreenBuf(e.docs.Rows)
	buf := *bufp
	low := e.screenPass(buf, q32, slack, k, skip)
	items, cands := e.rescorePass(buf, qn, slack, k, low, skip)
	screenBuf.Put(bufp)
	scanned := e.docs.Rows - skip.CountUpTo(e.docs.Rows)
	return items, ScreenStats{Screened: true, Candidates: cands, ScannedRows: scanned}
}

// screenPass fills buf with the float32 screened score of every live row
// and returns the kth largest certified lower bound — the screening
// threshold L. The scan shards exactly like the float64 scoring scan.
func (e *Engine) screenPass(buf []float32, q32 []float32, slack float64, k int, skip Skip) float64 {
	n := e.docs.Rows
	// Every live row is offered and k ≤ live (callers clamp), so the
	// merge holds at least k items.
	lbs, _ := runSpans(n, k, n*e.docs.Cols >= scoreParallelCutoff, func(s *selector, lo, hi int) int {
		e.screenSpan(s, buf, q32, slack, lo, hi, skip)
		return 0
	})
	return lbs[k-1].Score
}

// screenSpan is the stage-1 kernel: float32 dot against mirror rows
// [lo, hi), recording the raw screened score and feeding the certified
// lower bound through the selector. Skipped rows are not scored and
// their buf entry is left untouched.
//
//lsilint:noalloc
func (e *Engine) screenSpan(s *selector, buf []float32, q32 []float32, slack float64, lo, hi int, skip Skip) {
	if skip == nil {
		for i := lo; i < hi; i++ {
			sc := dense.DotF32(q32, e.mir.docs.Row(i))
			buf[i] = sc
			s.offer(Item{Doc: i, Score: float64(sc) - e.mir.eps[i] - slack})
		}
		return
	}
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		sc := dense.DotF32(q32, e.mir.docs.Row(i))
		buf[i] = sc
		s.offer(Item{Doc: i, Score: float64(sc) - e.mir.eps[i] - slack})
	}
}

// rescorePass rescans the screened scores, rescoring in float64 every
// row whose upper bound clears the threshold, and returns the exact
// top-k plus the candidate count. The rescore uses the same dense.Dot
// the exact path uses, so surviving scores are bit-identical to it.
func (e *Engine) rescorePass(buf []float32, qn []float64, slack float64, k int, low float64, skip Skip) ([]Item, int) {
	n := e.docs.Rows
	return runSpans(n, k, n*e.docs.Cols >= scoreParallelCutoff, func(s *selector, lo, hi int) int {
		return e.rescoreSpan(s, buf, qn, slack, low, lo, hi, skip)
	})
}

// rescoreSpan is the stage-2 kernel over rows [lo, hi): cheap float32
// upper-bound test, exact float64 rescore only for survivors. The skip
// test guards the buf read too — a skipped row's entry may be stale.
//
//lsilint:noalloc
func (e *Engine) rescoreSpan(s *selector, buf []float32, qn []float64, slack float64, low float64, lo, hi int, skip Skip) int {
	cands := 0
	if skip == nil {
		for i := lo; i < hi; i++ {
			if float64(buf[i])+e.mir.eps[i]+slack >= low {
				s.offer(Item{Doc: i, Score: dense.Dot(qn, e.docs.Row(i))})
				cands++
			}
		}
		return cands
	}
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		if float64(buf[i])+e.mir.eps[i]+slack >= low {
			s.offer(Item{Doc: i, Score: dense.Dot(qn, e.docs.Row(i))})
			cands++
		}
	}
	return cands
}

// lbThreshold computes the screening threshold for a score row that was
// already screened by a batched gemm (stage 1 of TopKBatch): the kth
// largest certified lower bound over the live entries of buf. Callers
// clamp k ≤ live, so at least k bounds are offered.
func (e *Engine) lbThreshold(buf []float32, slack float64, k int, skip Skip) float64 {
	n := len(buf)
	lbs, _ := runSpans(n, k, n >= selectParallelCutoff, func(s *selector, lo, hi int) int {
		e.lbSpan(s, buf, slack, lo, hi, skip)
		return 0
	})
	return lbs[k-1].Score
}

// lbSpan offers the certified lower bound of already-screened live rows
// [lo, hi) through the selector — a skipped row must not seed the
// threshold (its gemm score is real here, but it is not a candidate).
//
//lsilint:noalloc
func (e *Engine) lbSpan(s *selector, buf []float32, slack float64, lo, hi int, skip Skip) {
	if skip == nil {
		for i := lo; i < hi; i++ {
			s.offer(Item{Doc: i, Score: float64(buf[i]) - e.mir.eps[i] - slack})
		}
		return
	}
	for i := lo; i < hi; i++ {
		if skip.Has(i) {
			continue
		}
		s.offer(Item{Doc: i, Score: float64(buf[i]) - e.mir.eps[i] - slack})
	}
}

// checkMirror panics if the mirror has drifted from the float64 cache —
// a development invariant used by tests.
func (e *Engine) checkMirror() {
	if e.mir == nil {
		return
	}
	if e.mir.docs.Rows != e.docs.Rows || e.mir.docs.Cols != e.docs.Cols {
		panic("rank: mirror shape drift")
	}
	for i := 0; i < e.docs.Rows; i++ {
		r64 := e.docs.Row(i)
		r32 := e.mir.docs.Row(i)
		for j, v := range r64 {
			if math.Float32bits(r32[j]) != math.Float32bits(float32(v)) {
				panic("rank: mirror row not bit-equal to converted float64 row")
			}
		}
	}
	if e.mir.q8 == nil {
		return
	}
	if e.mir.q8.Rows != e.docs.Rows || e.mir.q8.Cols != e.docs.Cols {
		panic("rank: int8 tier shape drift")
	}
	requant := make([]int8, e.docs.Cols)
	for i := 0; i < e.docs.Rows; i++ {
		r64 := e.docs.Row(i)
		s := dense.QuantizeI8(requant, r64)
		if math.Float64bits(s) != math.Float64bits(e.mir.scale[i]) {
			panic("rank: int8 tier scale not bit-equal to requantization")
		}
		r8 := e.mir.q8.Row(i)
		for j, q := range requant {
			if r8[j] != q {
				panic("rank: int8 tier row not bit-equal to requantization")
			}
		}
	}
}
