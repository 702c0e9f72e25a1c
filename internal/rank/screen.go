package rank

import (
	"math"
	"sync"

	"repro/internal/dense"
)

// Screened exact top-k: a cheap first tier of the normalized document
// cache is scanned first — the float32 mirror (half the memory traffic,
// vectorized float32 dot products) or, in front of it, the int8 tier of
// screen8.go — and only rows whose screened score could — under a
// provable rounding bound — still reach the running kth-best are rescored
// with the float64 kernels. The final result is byte-identical to the
// pure float64 path (pinned by test): the rescore uses exactly the
// dense.Dot the exact path uses, and the candidate set provably contains
// every true top-k row. Every screened query — with or without a cluster
// index, int8 or float32 first tier, single or batched — runs the one
// pipeline in scan below.
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
	m := allocMirror(docs, withInt8 && docs.Cols <= dense.MaxI8Dim)
	m.fillRows(docs, 0)
	return m
}

// allocMirror sizes an unfilled mirror for docs: lengths match its rows,
// capacities match cap(docs.Data).
func allocMirror(docs *dense.Matrix, withInt8 bool) *mirror {
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
	if withInt8 {
		m.q8 = &dense.MatrixI8{Rows: docs.Rows, Cols: docs.Cols,
			Data: make([]int8, len(docs.Data), capElems)}
		m.scale = make([]float64, docs.Rows, capRows)
		m.eps8 = make([]float64, docs.Rows, capRows)
	}
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

// extendCopy is extendShared for the copy path: docs is a fresh
// allocation whose first oldRows rows are this mirror's float64 rows,
// copied bit for bit. Their conversions, residuals and bounds are
// functions of those rows, so they are copied too; only the new rows are
// converted.
func (m *mirror) extendCopy(docs *dense.Matrix, oldRows int) *mirror {
	next := allocMirror(docs, m.q8 != nil)
	copy(next.docs.Data, m.docs.Data[:oldRows*docs.Cols])
	copy(next.eps, m.eps[:oldRows])
	next.maxEps = m.maxEps
	if m.q8 != nil {
		copy(next.q8.Data, m.q8.Data[:oldRows*docs.Cols])
		copy(next.scale, m.scale[:oldRows])
		copy(next.eps8, m.eps8[:oldRows])
		next.maxEps8 = m.maxEps8
	}
	next.fillRows(docs, oldRows)
	return next
}

// ScreenStats describes what scan did for one query.
type ScreenStats struct {
	// Screened reports whether the screened scan ran at all; a false
	// value means the exact float64 path served the query directly.
	Screened bool
	// Candidates is how many rows survived screening and were rescored in
	// float64 (k ≤ Candidates ≤ ScannedRows when Screened).
	Candidates int
	// Promoted is how many rows the int8 coarse pass promoted to the
	// float32 bracket (Candidates ≤ Promoted ≤ ScannedRows on an int8
	// engine; 0 on float32-first and exact ones).
	Promoted int
	// ClustersTotal is how many IVF cells the engine's index holds; zero
	// when the query ran without a cluster index.
	ClustersTotal int
	// ClustersScanned is how many of those cells the scan actually
	// visited before the certified bound (or the nprobe cap) stopped it.
	ClustersScanned int
	// ScannedRows is how many live rows stage 1 gathered: all of them
	// without an index, the visited cells' members plus the un-indexed
	// range with one.
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

// scanScratch recycles everything a scan needs besides its result: the
// prepared query and the gathered-candidate buffers (row id and
// first-tier score of every scanned row), sized to the widest and largest
// collection served, so steady-state scans allocate nothing proportional
// to n or dim.
type scanScratch struct {
	// q is the prepared query (quantizeQuery); q32 and qq8 back its slices.
	q   q8query
	q32 []float32
	qq8 []int8
	ids []int32
	// s32 holds float32 screened scores: of every gathered row when the
	// float32 mirror is the first tier, of the promoted rows otherwise.
	s32 []float32
	// d8 holds the raw integer dot of each gathered row when the int8 tier
	// is the first tier.
	d8 []int32
	// ubs and order hold the per-cell upper bounds and visit order of an
	// indexed scan (ivfCellOrder).
	ubs   []float64
	order []int
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func getScanScratch(n, dim int) *scanScratch {
	sc := scanScratchPool.Get().(*scanScratch)
	if cap(sc.ids) < n {
		sc.ids = make([]int32, n)
		sc.s32 = make([]float32, n)
		sc.d8 = make([]int32, n)
	}
	if cap(sc.q32) < dim {
		sc.q32 = make([]float32, dim)
		sc.qq8 = make([]int8, dim)
	}
	sc.ids = sc.ids[:n]
	sc.s32 = sc.s32[:n]
	sc.d8 = sc.d8[:n]
	return sc
}

// scan is the screened top-k pipeline for a normalized query — the one
// scan behind every screened entry point (docs/ALGORITHMS.md, "Scan
// pipeline"). Callers guarantee screenable(k) and k ≤ live rows.
//
// Stage 1 gathers (row id, raw first-tier score) of every scanned live
// row into the scratch arrays and feeds its certified lower bound to a
// bounded selector. The un-indexed range [ivf.rows, n) comes first — all
// of [0, n) without an index: a flat scan is the clustered scan with no
// cells. It is always scanned (it seeds the threshold and keeps a stale
// index exact) and, when fanOut and big enough, split across spans: a
// row's slot is its live rank within the range, so spans write disjoint
// segments and the layout does not depend on the worker count. Index
// cells follow in decreasing-ub order, serially, because each visit
// depends on the threshold the previous ones left: once the selector
// holds k lower bounds, a cell with ub_c < L (the kth largest) cannot
// contribute — every member's exact score is ≤ ub_c < L ≤ the kth best
// exact score, whichever tier's lower bounds L came from — and the
// ordering makes the first such cell end the sweep. nprobe > 0 also ends
// it after nprobe cells once k rows have been seen (approximate mode: the
// exact top-k of the probed rows).
//
// skip is applied in stage 1 only: a skipped row is never gathered, so it
// can neither seed a threshold nor reach a later stage, which read
// gathered ids. A cell's ub stays valid for its surviving members (the
// radius only loosens when the tombstoned row was the farthest one).
//
// Stage 2 (int8 engines) compacts the gathered rows in place to those
// whose coarse upper bound clears L, scores them against the float32
// mirror and takes the next threshold from that promoted set
// (screen8.go); stage 3 rescores the survivors in float64 and selects
// under the usual total order.
func (e *Engine) scan(qn []float64, k, nprobe int, skip Skip, fanOut bool) ([]Item, ScreenStats) {
	st := ScreenStats{Screened: true}
	n, base := e.docs.Rows, 0
	var ubs []float64
	var order []int
	sc := getScanScratch(n, len(qn))
	q := e.quantizeQuery(sc, qn)
	if e.ivf != nil {
		base = e.ivf.rows
		ubs, order = e.ivfCellOrder(qn, sc)
		st.ClustersTotal = len(order)
	}
	liveBelow := base - skip.CountUpTo(base)
	lbs := runSpans(n-base, k, fanOut && (n-base)*e.docs.Cols >= scoreParallelCutoff, func(s *selector, lo, hi int) {
		lo, hi = base+lo, base+hi
		e.gather(s, sc, q, lo, hi, nil, lo-skip.CountUpTo(lo)-liveBelow, skip)
	})
	m := n - skip.CountUpTo(n) - liveBelow
	sel := newSelector(k)
	for _, lb := range lbs {
		sel.offer(lb)
	}
	for _, c := range order {
		if len(sel.h) >= k {
			if ubs[c] < sel.h[0].Score {
				break // certified: no remaining cell can reach the top-k
			}
			if nprobe > 0 && st.ClustersScanned >= nprobe {
				break // approximate mode: probe budget spent
			}
		}
		m = e.gather(sel, sc, q, 0, 0, e.ivf.members[c], m, skip)
		st.ClustersScanned++
	}
	st.ScannedRows = m
	low := sel.threshold()
	if q.qq8 != nil {
		psel := newSelector(k)
		m = e.promoteGathered8(psel, sc.ids, sc.d8, sc.s32, q, low, m)
		st.Promoted = m
		low = psel.threshold()
	}
	rsel := newSelector(k)
	st.Candidates = e.rescoreGathered(rsel, sc.ids, sc.s32, qn, q.slack32, low, m)
	scanScratchPool.Put(sc)
	return rsel.finish(), st
}

// gather is stage 1 over rows [lo, hi) and then the member list mem —
// callers pass a range or a list, leaving the other empty; a range is just
// an id run. It compacts the live ids into the scratch from slot m on
// (the only place skip is consulted), scores the whole run through the
// engine's first tier in one kernel call and returns the new fill count.
//
//lsilint:noalloc
func (e *Engine) gather(s *selector, sc *scanScratch, q *q8query, lo, hi int, mem []int32, m int, skip Skip) int {
	p := m
	for i := lo; i < hi; i++ {
		if !skip.Has(i) {
			sc.ids[p] = int32(i)
			p++
		}
	}
	for _, id := range mem {
		if !skip.Has(int(id)) {
			sc.ids[p] = id
			p++
		}
	}
	if q.qq8 != nil {
		e.gather8(s, sc.ids[m:p], sc.d8[m:p], q)
	} else {
		e.gather32(s, sc.ids[m:p], sc.s32[m:p], q)
	}
	return p
}

// gather32 is the float32 stage-1 kernel: a float32 dot against the
// mirror row of every id, the raw score recorded beside it and the
// certified lower bound s32 − ε − slack fed through the selector.
//
//lsilint:noalloc
func (e *Engine) gather32(s *selector, ids []int32, s32 []float32, q *q8query) {
	mir := e.mir
	dense.DotF32Rows(s32, q.q32, mir.docs, ids)
	for j, id := range ids {
		i := int(id)
		s.offer(Item{Doc: i, Score: float64(s32[j]) - mir.eps[i] - q.slack32})
	}
}

// rescoreGathered is the last stage: over the m gathered (or promoted)
// rows, rescore in float64 every row whose certified float32 upper bound
// clears the threshold — with the same dense.Dot the exact path uses, so
// surviving scores are bit-identical to it. Returns how many it rescored.
//
//lsilint:noalloc
func (e *Engine) rescoreGathered(s *selector, ids []int32, s32 []float32, qn []float64, slack, low float64, m int) int {
	cands := 0
	for j := 0; j < m; j++ {
		i := int(ids[j])
		if float64(s32[j])+e.mir.eps[i]+slack >= low {
			s.offer(Item{Doc: i, Score: dense.Dot(qn, e.docs.Row(i))})
			cands++
		}
	}
	return cands
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
