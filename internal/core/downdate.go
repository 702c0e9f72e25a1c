package core

import (
	"errors"
	"fmt"

	"repro/internal/dense"
)

// Document downdating: removing rows from the maintained rank-k
// factorization without touching A. Dropping document rows from V breaks
// column orthonormality, so the reduced factorization U·Σ·Ṽᵀ (Ṽ = the
// surviving rows of V) is re-diagonalized through the same projection
// machinery the update path uses — see docs/ALGORITHMS.md ("Downdating").
//
// With G = ṼᵀṼ = RᵀR (Cholesky) and W = Ṽ·R⁻¹ column-orthonormal:
//
//	U·Σ·Ṽᵀ = U·(Σ·Rᵀ)·Wᵀ,  SVD(Σ·Rᵀ) = U_q·Σ_q·V_qᵀ
//	⇒ U' = U·U_q,  Σ' = Σ_q,  V' = W·V_q = Ṽ·(R⁻¹·V_q).
//
// The result is the exact rank-k SVD of the reduced approximation, and —
// like the update plan — the document map v ↦ v·(R⁻¹V_q) is row-local
// and deterministic, so the sharded tier can apply ONE global plan to
// per-shard row blocks bit-identically to a single engine.

// ErrDowndateDegenerate is returned when fewer live document rows remain
// than the model's rank k: the surviving Gram matrix is singular and no
// rank-k downdate exists. Callers keep serving through tombstones until
// enough documents exist again.
var ErrDowndateDegenerate = errors.New("core: downdate needs at least k live documents")

// DocsDowndatePlan is the document-removal analogue of DocsUpdatePlan: a
// basis plan computed once from the global set of surviving rows, then
// applied to row blocks independently. Sign resolution follows the same
// protocol: candidates over the full conceptual V' (rotated surviving
// rows in canonical order), combined, then ApplySigns + FlipColumns on
// each rotated block.
type DocsDowndatePlan struct {
	// U is the rotated term basis U·U_q (m×k'), shared by every model the
	// plan is applied to.
	U *dense.Matrix
	// S holds the downdated singular values Σ_q.
	S []float64
	// Rot is R⁻¹·V_q (k×k'): surviving document rows map as v ↦ v·Rot.
	Rot *dense.Matrix
}

// PlanDocsDowndate computes the downdate plan for a model keeping
// exactly the rows of vlive, the surviving document rows in canonical
// global order (for a single engine: ascending row index; for the
// sharded tier: ascending submission ordinal). The receiver is not
// mutated and the plan carries no sign convention yet.
func (m *Model) PlanDocsDowndate(vlive *dense.Matrix) (*DocsDowndatePlan, error) {
	if m.FoldedDocs() != 0 || m.FoldedTerms() != 0 {
		return nil, ErrFoldedModel
	}
	k := m.K
	if vlive.Cols != k {
		return nil, fmt.Errorf("core: downdate rows have %d columns want %d", vlive.Cols, k)
	}
	if vlive.Rows < k {
		return nil, ErrDowndateDegenerate
	}
	// G = ṼᵀṼ, k×k. Rank deficiency (e.g. duplicate-free but degenerate
	// geometry) surfaces as a failed Cholesky.
	g := dense.MulT(vlive, vlive)
	r, err := dense.CholUpper(g)
	if err != nil {
		return nil, ErrDowndateDegenerate
	}
	ri, err := dense.InvertUpper(r)
	if err != nil {
		return nil, ErrDowndateDegenerate
	}
	// K = Σ·Rᵀ, k×k: K[i][j] = S[i]·R[j][i].
	km := dense.New(k, k)
	for i := 0; i < k; i++ {
		row := km.Row(i)
		for j := 0; j <= i; j++ {
			row[j] = m.S[i] * r.At(j, i)
		}
	}
	sq := dense.SVD(km).Truncate(k)
	kp := sq.U.Cols
	return &DocsDowndatePlan{
		U:   dense.Mul(m.U, sq.U),
		S:   sq.S,
		Rot: dense.Mul(ri, sq.V.Slice(0, k, 0, kp)),
	}, nil
}

// RotateDocs maps surviving document rows into the downdated basis:
// V·Rot. Row-independent with a fixed summation order, so per-shard
// application of one global plan is bit-identical to rotating the full
// matrix.
func (p *DocsDowndatePlan) RotateDocs(v *dense.Matrix) *dense.Matrix {
	return dense.Mul(v, p.Rot)
}

// ApplySigns flips the marked columns of the plan's shared factors (U
// and Rot). Callers flip already-rotated row blocks with
// dense.FlipColumns using the same decision.
func (p *DocsDowndatePlan) ApplySigns(flip []bool) {
	dense.FlipColumns(p.U, flip)
	dense.FlipColumns(p.Rot, flip)
}

// Apply builds the downdated successor of base: a model over the plan's
// basis whose document rows are v — typically RotateDocs of the caller's
// surviving rows, signs already applied consistently. The result is
// unfolded.
func (p *DocsDowndatePlan) Apply(base *Model, v *dense.Matrix) *Model {
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

// DowndateDocs removes the document rows NOT listed in live from the
// receiver, re-diagonalizing the factorization: plan, rotate, resolve
// signs over the surviving rows, apply. live must be strictly ascending
// row indices into the current V. This is the single-model application
// of the same plan the sharded compactor distributes.
func (m *Model) DowndateDocs(live []int) error {
	n := m.V.Rows
	for i, r := range live {
		if r < 0 || r >= n || (i > 0 && r <= live[i-1]) {
			return fmt.Errorf("core: DowndateDocs live rows must be strictly ascending in [0,%d)", n)
		}
	}
	vlive := dense.New(len(live), m.V.Cols)
	for i, r := range live {
		copy(vlive.Row(i), m.V.Row(r))
	}
	p, err := m.PlanDocsDowndate(vlive)
	if err != nil {
		return err
	}
	rot := p.RotateDocs(vlive)
	ords := make([]int64, rot.Rows)
	for i := range ords {
		ords[i] = int64(i)
	}
	flip := CombineSignFlips(SignCandidates(rot, ords))
	p.ApplySigns(flip)
	dense.FlipColumns(rot, flip)
	m.U = p.U
	m.S = p.S
	m.V = rot
	m.svdDocs = rot.Rows
	m.invalidateEngine()
	return nil
}
