package core

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// FoldInDocs appends p new documents to the model by projection (Eq 7):
// each raw count column d becomes d̂ = dᵀU_kΣ_k⁻¹ and is appended as a row
// of V_k. "The coordinates of the original topics stay fixed, and hence the
// new data has no effect on the clustering of existing terms or documents"
// (§3.3) — cheap, but it corrupts the orthogonality of V̂_k (§4.3).
//
// d is the m×p raw count matrix over the current vocabulary; the model's
// weighting scheme is applied internally.
func (m *Model) FoldInDocs(d *sparse.CSR) {
	if d.Rows != m.NumTerms() {
		panic(fmt.Sprintf("core: FoldInDocs terms %d want %d", d.Rows, m.NumTerms()))
	}
	// Column j of d is row j of the transpose (one counting sort, O(nnz)),
	// already in the ascending term order ProjectSparse wants.
	dt := d.T()
	// The projected rows land straight in V's tail: in spare capacity the
	// model's claim token wins (O(p·k) bytes, independent of n), else in a
	// fresh copy with headroom for the folds that follow (see SharedClone).
	claim := m.vClaim
	if m.vChained != m.V {
		claim = nil // V was replaced since the token was issued
	}
	oldRows, k := m.V.Rows, m.U.Cols
	if m.V.Cols != k {
		panic(fmt.Sprintf("core: FoldInDocs V has %d columns want %d", m.V.Cols, k))
	}
	data, token, _ := dense.ClaimAppend(m.V.Data, claim, d.Cols*k)
	v := &dense.Matrix{Rows: oldRows + d.Cols, Cols: k, Data: data}
	for j := 0; j < d.Cols; j++ {
		m.ProjectSparse(dt.RowVec(j), v.Row(oldRows+j))
	}
	m.V, m.vClaim, m.vChained = v, token, v
	// The scoring engine's norm cache extends itself lazily on the next
	// query: existing rows are untouched by folding, so only the appended
	// rows need normalizing (see docEngine).
}

// FoldInTerms appends q new terms by projection (Eq 8): each raw 1×n
// occurrence vector t becomes t̂ = tV_kΣ_k⁻¹, appended as a row of U_k.
// New terms carry global weight 1 (their collection statistics were never
// part of the SVD).
//
// t is the q×n raw count matrix over the current documents.
func (m *Model) FoldInTerms(t *sparse.CSR) {
	if t.Cols != m.NumDocs() {
		panic(fmt.Sprintf("core: FoldInTerms docs %d want %d", t.Cols, m.NumDocs()))
	}
	rows := make([][]float64, t.Rows)
	for i := 0; i < t.Rows; i++ {
		raw := make([]float64, t.Cols)
		t.Row(i, func(j int, v float64) { raw[j] = m.Scheme.Local.Apply(v) })
		rows[i] = dense.MulVecT(m.V, raw)
		for c := range rows[i] {
			rows[i][c] /= m.S[c]
		}
	}
	m.U = m.U.AugmentRows(dense.NewFromRows(rows))
	// Extend the global-weight table so future queries over the enlarged
	// vocabulary stay well-defined.
	for i := 0; i < t.Rows; i++ {
		m.global = append(m.global, 1)
	}
}

// FoldedDocs returns how many document rows were appended by folding-in
// (rather than produced by an SVD).
func (m *Model) FoldedDocs() int { return m.NumDocs() - m.svdDocs }

// FoldedTerms returns how many term rows were appended by folding-in.
func (m *Model) FoldedTerms() int { return m.NumTerms() - m.svdTerms }

// DocOrthogonality returns ‖V̂_kᵀV̂_k − I_k‖_F, the §4.3 measure of how much
// distortion folding-in has introduced on the document side. Zero for a
// freshly built or SVD-updated model.
func (m *Model) DocOrthogonality() float64 {
	return dense.OrthogonalityError(m.V)
}

// TermOrthogonality is the same measure for Û_k.
func (m *Model) TermOrthogonality() float64 {
	return dense.OrthogonalityError(m.U)
}
