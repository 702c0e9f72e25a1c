package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// ErrFoldedModel is returned when an SVD-update is attempted on a model
// whose factors contain folded-in (non-orthogonal) rows; the update
// algebra of §4.2 assumes orthonormal U_k and V_k.
var ErrFoldedModel = errors.New("core: SVD-updating requires an unfolded model (rebuild or update before folding in)")

// DocsUpdatePlan is the document phase of SVD-updating split into a
// basis plan and its application. PlanDocsUpdate pays the SVD of F once;
// applying the plan to a document row block is then an independent,
// row-deterministic rotation — which is what lets the sharded serving
// tier (internal/shard) compact N shards under ONE shared basis: the
// router computes one plan over the global pending set and every shard
// rotates only its own V rows, bit-identical to the rows it would get
// from a single-engine UpdateDocs over the concatenated corpus.
type DocsUpdatePlan struct {
	// U is the rotated term basis U_k·U_F (m×k'), shared by every model
	// the plan is applied to — the cross-shard invariant that keeps
	// cosine scores comparable.
	U *dense.Matrix
	// S holds the updated singular values Σ_F.
	S []float64
	// VTop is V_F[:k] (k×k'): existing document rows map through
	// RotateDocs as v ↦ v·VTop.
	VTop *dense.Matrix
	// VNew is V_F[k:] (p×k'): row i is the updated coordinate row of
	// column i of the d the plan was computed from.
	VNew *dense.Matrix
}

// PlanDocsUpdate computes the document SVD-update plan (§4.2): the k
// largest singular triplets of B = (A_k | D) (Eq 10) from the existing
// factors, without touching A. Following O'Brien's derivation, with
// F = (Σ_k | U_kᵀD):
//
//	SVD(F) = U_F Σ_F V_Fᵀ,  U_B = U_k·U_F,  V_B = diag(V_k, I_p)·V_F.
//
// d is the m×p raw count matrix; the model's weighting is applied
// internally. The receiver is not mutated, and the returned plan's
// factors carry no sign convention yet — callers resolve signs with
// SignCandidates/CombineSignFlips over the full conceptual V_B and then
// ApplySigns (UpdateDocs does exactly this for the single-model case).
func (m *Model) PlanDocsUpdate(d *sparse.CSR) (*DocsUpdatePlan, error) {
	utd, err := m.projectedDocsBlock(d)
	if err != nil {
		return nil, err
	}
	k, p := m.K, d.Cols
	// F = (Σ_k | U_kᵀD), k×(k+p).
	f := dense.Diag(m.S).AugmentCols(utd)
	sf := dense.SVD(f).Truncate(k)
	kp := sf.U.Cols // k' = k unless F was rank-deficient
	return &DocsUpdatePlan{
		U:    dense.Mul(m.U, sf.U),
		S:    sf.S,
		VTop: sf.V.Slice(0, k, 0, kp),
		VNew: sf.V.Slice(k, k+p, 0, kp),
	}, nil
}

// projectedDocsBlock validates d, applies the model's weighting, and
// returns the projected update block U_kᵀ·W(D) (k×p) shared by both
// document-update strategies. The weighted copy shares d's sparsity
// skeleton: W(D)[i,j] = Local(D[i,j])·global[i], and Local(0) = 0, so
// weighting never fills in a structural zero and RowPtr/ColIdx can be
// shared outright. The projection is computed as (W(D)ᵀ·U_k)ᵀ — one
// blocked pass over D instead of p column matvecs against a densified
// column.
func (m *Model) projectedDocsBlock(d *sparse.CSR) (*dense.Matrix, error) {
	if d.Rows != m.NumTerms() {
		return nil, fmt.Errorf("core: UpdateDocs terms %d want %d", d.Rows, m.NumTerms())
	}
	if m.FoldedDocs() != 0 || m.FoldedTerms() != 0 {
		return nil, ErrFoldedModel
	}
	k, p := m.K, d.Cols
	wval := make([]float64, len(d.Val))
	for i := 0; i < d.Rows; i++ {
		g := 1.0
		if i < len(m.global) {
			g = m.global[i]
		}
		for q := d.RowPtr[i]; q < d.RowPtr[i+1]; q++ {
			wval[q] = m.Scheme.Local.Apply(d.Val[q]) * g
		}
	}
	dw := &sparse.CSR{Rows: d.Rows, Cols: d.Cols, RowPtr: d.RowPtr, ColIdx: d.ColIdx, Val: wval}
	return (&dense.Matrix{Rows: p, Cols: k, Data: dw.MulDenseT(m.U.Data, k)}).T(), nil
}

// RotateDocs maps existing document rows into the plan's basis: V·VTop.
// dense.Mul computes each output row independently with a fixed inner
// summation order, so rotating any row block yields bytes identical to
// the corresponding rows of rotating the full matrix — the property that
// makes per-shard application of one global plan exact.
func (p *DocsUpdatePlan) RotateDocs(v *dense.Matrix) *dense.Matrix {
	return dense.Mul(v, p.VTop)
}

// ApplySigns flips the marked columns of the plan's shared factors (U
// and VNew). Callers flip their independently rotated top blocks with
// dense.FlipColumns using the same decision, computed once over the full
// conceptual V_B via SignCandidates/CombineSignFlips.
func (p *DocsUpdatePlan) ApplySigns(flip []bool) {
	dense.FlipColumns(p.U, flip)
	dense.FlipColumns(p.VNew, flip)
}

// Apply builds the compacted successor of base: a model over the plan's
// basis whose document rows are v — typically RotateDocs(base.V) with
// the caller's share of VNew appended, signs already applied
// consistently to v and the plan. Every model the plan is applied to
// shares the plan's U pointer, so all shards of a router serve one
// latent basis. The result is unfolded (all rows count as SVD rows).
func (p *DocsUpdatePlan) Apply(base *Model, v *dense.Matrix) *Model {
	return &Model{
		K:        base.K,
		U:        p.U,
		S:        append([]float64(nil), p.S...),
		V:        v,
		Scheme:   base.Scheme,
		global:   clip(base.global),
		svdDocs:  v.Rows,
		svdTerms: base.svdTerms,
	}
}

// SignCandidate records, for one factor column, the dominant entry of a
// row block: Val is the entry with the largest magnitude, Abs that
// magnitude, and Ord the row's position in the canonical global row
// order. Blocks scanned independently combine through CombineSignFlips
// into exactly the decision FixSigns would make scanning the
// concatenated matrix top to bottom.
type SignCandidate struct {
	Abs float64
	Val float64
	Ord int64
}

// SignCandidates scans v's rows and returns one candidate per column.
// ords[i] is row i's position in the canonical global row order (the
// order FixSigns would scan the concatenated matrix in); len(ords) must
// equal v.Rows. A zero-row matrix yields candidates that lose to any
// real entry.
func SignCandidates(v *dense.Matrix, ords []int64) []SignCandidate {
	if len(ords) != v.Rows {
		panic(fmt.Sprintf("core: SignCandidates %d ords for %d rows", len(ords), v.Rows))
	}
	out := make([]SignCandidate, v.Cols)
	for j := range out {
		out[j] = SignCandidate{Abs: -1, Ord: int64(1) << 62}
	}
	for i := 0; i < v.Rows; i++ {
		row := v.Row(i)
		ord := ords[i]
		for j, val := range row {
			a := math.Abs(val)
			c := &out[j]
			if a > c.Abs || (a == c.Abs && ord < c.Ord) { //lsilint:ignore floatcmp — first-strict-max tie resolution needs bit equality
				c.Abs, c.Val, c.Ord = a, val, ord
			}
		}
	}
	return out
}

// CombineSignFlips resolves per-block candidates into per-column flip
// decisions: within a column the winner is the candidate with the
// strictly largest magnitude, ties broken by the smallest global Ord —
// which reproduces the sequential first-strict-max scan of
// SVDFactors.FixSigns over the concatenated rows. A column flips when
// its winning value is negative.
func CombineSignFlips(groups ...[]SignCandidate) []bool {
	var flip []bool
	var best []SignCandidate
	for _, g := range groups {
		if best == nil {
			best = append([]SignCandidate(nil), g...)
			continue
		}
		if len(g) != len(best) {
			panic(fmt.Sprintf("core: CombineSignFlips %d columns vs %d", len(g), len(best)))
		}
		for j, c := range g {
			b := &best[j]
			if c.Abs > b.Abs || (c.Abs == b.Abs && c.Ord < b.Ord) { //lsilint:ignore floatcmp — first-strict-max tie resolution needs bit equality
				*b = c
			}
		}
	}
	flip = make([]bool, len(best))
	for j, b := range best {
		flip[j] = b.Val < 0
	}
	return flip
}

// UpdateDocs performs the document phase of SVD-updating (§4.2) on the
// receiver: plan, rotate, resolve signs over the full V_B, apply. Unlike
// folding-in, every existing term and document coordinate moves — the
// latent structure is re-diagonalized. See PlanDocsUpdate for the
// algebra; this is the single-model application of the same plan the
// sharded compactor distributes.
func (m *Model) UpdateDocs(d *sparse.CSR) error {
	return m.UpdateDocsOpts(d, UpdateOptions{})
}

// UpdateDocsOpts is UpdateDocs under an explicit strategy choice: the
// plan comes from PlanDocsUpdateOpts, everything downstream (rotation,
// sign resolution, application) is strategy-independent.
func (m *Model) UpdateDocsOpts(d *sparse.CSR, opts UpdateOptions) error {
	p, err := m.PlanDocsUpdateOpts(d, opts)
	if err != nil {
		return err
	}
	n, pnew := m.V.Rows, p.VNew.Rows
	rot := p.RotateDocs(m.V)
	ords := make([]int64, n+pnew)
	for i := range ords {
		ords[i] = int64(i)
	}
	flip := CombineSignFlips(
		SignCandidates(rot, ords[:n]),
		SignCandidates(p.VNew, ords[n:]),
	)
	p.ApplySigns(flip)
	dense.FlipColumns(rot, flip)
	m.U = p.U
	m.S = p.S
	m.V = rot.AugmentRows(p.VNew)
	m.svdDocs += pnew
	m.invalidateEngine()
	return nil
}

// UpdateTerms performs the term phase of SVD-updating (§4.2): the k
// largest triplets of C = (A_k ; T) (Eq 11). With H = (Σ_k ; T·V_k):
//
//	SVD(H) = U_H Σ_H V_Hᵀ,  U_C = diag(U_k, I_q)·U_H,  V_C = V_k·V_H.
//
// t is the q×n raw count matrix of new term occurrences across the current
// documents; local weighting is applied, and the new terms receive global
// weight 1.
func (m *Model) UpdateTerms(t *sparse.CSR) error {
	if t.Cols != m.NumDocs() {
		return fmt.Errorf("core: UpdateTerms docs %d want %d", t.Cols, m.NumDocs())
	}
	if m.FoldedDocs() != 0 || m.FoldedTerms() != 0 {
		return ErrFoldedModel
	}
	k, q := m.K, t.Rows
	// Locally-weighted copy of T sharing the sparsity skeleton (new terms
	// carry global weight 1, so only the local transform applies).
	wval := make([]float64, len(t.Val))
	for p, v := range t.Val {
		wval[p] = m.Scheme.Local.Apply(v)
	}
	tw := &sparse.CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Val: wval}
	// W(T)·V_k is q×k — one blocked pass over T instead of q densified-row
	// matvecs.
	tv := &dense.Matrix{Rows: q, Cols: k, Data: tw.MulDense(m.V.Data, k)}
	// H = (Σ_k ; T·V_k), (k+q)×k.
	h := dense.Diag(m.S).AugmentRows(tv)
	sh := dense.SVD(h).Truncate(k)

	// U_C = diag(U_k, I_q)·U_H ((m+q)×k).
	top := dense.Mul(m.U, sh.U.Slice(0, k, 0, k))
	bottom := sh.U.Slice(k, k+q, 0, k)
	m.U = top.AugmentRows(bottom)
	// V_C = V_k·V_H (n×k).
	m.V = dense.Mul(m.V, sh.V)
	m.S = sh.S
	m.svdTerms += q
	for i := 0; i < q; i++ {
		m.global = append(m.global, 1)
	}
	m.fixSigns()
	m.invalidateEngine()
	return nil
}

// CorrectWeights performs the weight-correction phase of SVD-updating
// (§4.2): the k largest triplets of W = A_k + Y_j·Z_jᵀ (Eq 12), where Y_j
// selects the j terms whose weights changed (columns of the identity) and
// Z_j (n×j) holds the per-document differences between new and old
// weights. With Q = Σ_k + U_kᵀY_j·Z_jᵀV_k:
//
//	SVD(Q) = U_Q Σ_Q V_Qᵀ,  U_W = U_k·U_Q,  V_W = V_k·V_Q.
//
// termIdx lists the affected term rows; z.Row(c) corresponds to
// termIdx[c]… i.e. z is n×j with column c the weight delta of term
// termIdx[c] across documents.
func (m *Model) CorrectWeights(termIdx []int, z *dense.Matrix) error {
	if z.Rows != m.NumDocs() || z.Cols != len(termIdx) {
		return fmt.Errorf("core: CorrectWeights z is %dx%d want %dx%d", z.Rows, z.Cols, m.NumDocs(), len(termIdx))
	}
	if m.FoldedDocs() != 0 || m.FoldedTerms() != 0 {
		return ErrFoldedModel
	}
	for _, i := range termIdx {
		if i < 0 || i >= m.NumTerms() {
			return fmt.Errorf("core: CorrectWeights term index %d out of range %d", i, m.NumTerms())
		}
	}
	k, j := m.K, len(termIdx)
	// U_kᵀY_j is k×j: the selected rows of U_k, transposed.
	uty := dense.New(k, j)
	for c, ti := range termIdx {
		uty.SetCol(c, m.U.Row(ti))
	}
	// Z_jᵀV_k is j×k.
	ztv := dense.MulT(z, m.V)
	// Q = Σ_k + (U_kᵀY_j)(Z_jᵀV_k).
	q := dense.Diag(m.S).Add(dense.Mul(uty, ztv))
	sq := dense.SVD(q).Truncate(k)
	m.U = dense.Mul(m.U, sq.U)
	m.V = dense.Mul(m.V, sq.V)
	m.S = sq.S
	m.fixSigns()
	m.invalidateEngine()
	return nil
}

// fixSigns applies the deterministic sign convention after an update.
func (m *Model) fixSigns() {
	f := &dense.SVDFactors{U: m.U, S: m.S, V: m.V}
	f.FixSigns()
	m.U, m.V = f.U, f.V
}

// ReconstructAk returns U_k·Σ_k·V_kᵀ, the rank-k approximation of Figure 1.
// For a freshly built model this is A_k of Eq (2); after updates it is the
// maintained low-rank approximation of the enlarged matrix.
func (m *Model) ReconstructAk() *dense.Matrix {
	f := &dense.SVDFactors{U: m.U, S: m.S, V: m.V}
	return f.Reconstruct()
}
