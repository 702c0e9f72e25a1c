package rank

import "repro/internal/dense"

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

// q8query is the prepared query state one scan works from: the float32
// conversion every screening engine needs plus, when the engine carries
// an int8 tier, the quantized query and its coarse-bound scalars.
type q8query struct {
	// qq8 is nil on a float32-first engine, which is how scan picks the
	// first tier.
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
	// slack32 is the float32 bracket's query-level slack (screenSlack).
	slack32 float64
}

// quantizeQuery prepares a normalized query for scan in sc's buffers: the
// float32 mirror conversion and bracket slack, and the int8 quantization
// when the engine has that tier.
func (e *Engine) quantizeQuery(sc *scanScratch, qn []float64) *q8query {
	q := &sc.q
	*q = q8query{q32: sc.q32[:len(qn)]}
	dense.ConvertF32(q.q32, qn)
	q.slack32 = e.screenSlack(qn, q.q32)
	if e.mir.q8 == nil {
		return q
	}
	q.qq8 = sc.qq8[:len(qn)]
	q.sq = dense.QuantizeI8(q.qq8, qn)
	rq8 := dense.ResidualI8(qn, q.qq8, q.sq) * boundSlack
	n1 := float64(len(qn) + 1)
	const u64 = 0x1p-53
	g64 := n1 * u64 / (1 - n1*u64)
	q.epsMul = (1 + rq8) * boundSlack
	q.slack8 = (rq8 + g64*(1+1e-12) + 4*u64*(1+e.mir.maxEps8)*(1+rq8)) * boundSlack
	return q
}

// gather8 is gather32 against the int8 tier: an exact integer dot against
// the quantized row of every id, the raw dot recorded beside it and the
// certified coarse lower bound fed through the selector.
//
//lsilint:noalloc
func (e *Engine) gather8(s *selector, ids []int32, d8 []int32, q *q8query) {
	mir := e.mir
	dense.DotI8Rows(d8, q.qq8, mir.q8, ids)
	for j, id := range ids {
		i := int(id)
		c := mir.scale[i] * q.sq * float64(d8[j])
		s.offer(Item{Doc: i, Score: c - mir.eps8[i]*q.epsMul - q.slack8})
	}
}

// promoteGathered8 is stage 2: it compacts the m gathered rows in place,
// keeping (at position p ≤ j) exactly those whose coarse upper bound
// clears low8, and runs the float32 stage-1 kernel over the keepers, which
// scores them through the mirror and feeds their certified float32 lower
// bounds through the selector. Returns the promoted count; afterward
// ids[:p]/s32[:p] are exactly what rescoreGathered expects.
//
//lsilint:noalloc
func (e *Engine) promoteGathered8(s *selector, ids []int32, d8 []int32, s32 []float32, q *q8query, low8 float64, m int) int {
	mir := e.mir
	p := 0
	for j := 0; j < m; j++ {
		i := int(ids[j])
		c := mir.scale[i] * q.sq * float64(d8[j])
		if c+mir.eps8[i]*q.epsMul+q.slack8 < low8 {
			continue
		}
		ids[p] = ids[j]
		p++
	}
	e.gather32(s, ids[:p], s32[:p], q)
	return p
}
