// Package core implements Latent Semantic Indexing — the paper's primary
// contribution. A Model holds the truncated SVD A_k = U_kΣ_kV_kᵀ of a
// weighted term–document matrix (Figure 1) and supports:
//
//   - query projection q̂ = qᵀU_kΣ_k⁻¹ and cosine ranking (§2.2, Eq 6),
//   - folding-in of new documents (Eq 7) and terms (Eq 8),
//   - the three SVD-updating phases of §4.2 (documents, terms, weight
//     correction) following O'Brien's method,
//   - recomputation from scratch (§3.4), and
//   - the orthogonality-loss diagnostics of §4.3.
//
// Terms are rows of U_k, documents rows of V_k; both live in the same
// k-dimensional space, which is what enables the §5.4 applications
// (returning terms for queries, matching people, cross-language search).
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/lanczos"
	"repro/internal/rank"
	"repro/internal/sparse"
	"repro/internal/weight"
)

// Method selects the SVD engine.
type Method int

const (
	// MethodAuto uses the dense Golub–Reinsch solver for small matrices and
	// Lanczos above the densification threshold.
	MethodAuto Method = iota
	// MethodLanczos forces the sparse iterative solver (SVDPACK-style).
	MethodLanczos
	// MethodDense forces full dense SVD then truncation.
	MethodDense
	// MethodRandomized uses the randomized sketch solver.
	MethodRandomized
)

// denseCutoff is the m·n size under which MethodAuto densifies.
const denseCutoff = 1 << 16

// Config parameterizes Build.
type Config struct {
	// K is the number of factors (paper: 100–300 for real collections, 2
	// for the worked example). Clamped to min(m, n).
	K int
	// Scheme is the term weighting of Eq (5); zero value = raw counts.
	Scheme weight.Scheme
	// Method selects the SVD engine (default MethodAuto).
	Method Method
	// Seed drives the iterative solvers.
	Seed int64
}

// Model is an LSI-encoded database: "the database of singular values and
// vectors obtained from the truncated SVD" (§1).
type Model struct {
	K int
	// U (m×k) holds term vectors as rows; S the singular values; V (n×k)
	// document vectors as rows. After folding-in, U and V contain appended
	// non-orthogonal rows (see §4.3).
	U *dense.Matrix
	S []float64
	V *dense.Matrix
	// vClaim is the append-chain claim token of V's backing allocation
	// (see dense.ClaimAppend), valid only while V is vChained — the matrix
	// it was issued with. FoldInDocs appends into V's spare capacity when
	// it wins the token and copies with headroom otherwise; a model built
	// any other way has none, so its first fold-in copies.
	vClaim   *atomic.Int64
	vChained *dense.Matrix

	Scheme weight.Scheme
	// global holds G(i) for the original vocabulary rows; folded-in terms
	// carry weight 1.
	global []float64

	// svdDocs/svdTerms count the rows of V/U that came from an SVD (initial
	// build or SVD-update) rather than folding-in.
	svdDocs, svdTerms int

	// eng is the lazily-built unit-normalized document scoring engine;
	// engMu guards it so concurrent readers can build/extend the cache
	// safely. Mutations of the model itself (folding, SVD-updating) still
	// require the same external exclusive locking as every other method —
	// the internal mutex only makes the *cache* safe under concurrent
	// queries.
	engMu sync.RWMutex
	//lsilint:guardedby engMu
	eng *rank.Engine
}

// docEngine returns the cached unit-normalized document matrix, building
// it on first use, extending it when folding-in has appended V rows since
// it was built, and rebuilding it when the factor space changed shape.
// SVD-updating paths, which move every existing coordinate without
// changing the row count, invalidate it explicitly.
func (m *Model) docEngine() *rank.Engine {
	m.engMu.RLock()
	eng := m.eng
	m.engMu.RUnlock()
	if eng != nil && eng.NumDocs() == m.V.Rows && eng.Dim() == m.V.Cols {
		return eng
	}
	m.engMu.Lock()
	defer m.engMu.Unlock()
	switch {
	case m.eng == nil || m.eng.Dim() != m.V.Cols || m.eng.NumDocs() > m.V.Rows:
		m.eng = rank.NewEngine(m.V)
	case m.eng.NumDocs() < m.V.Rows:
		m.eng = m.eng.Extend(m.V.Slice(m.eng.NumDocs(), m.V.Rows, 0, m.V.Cols))
	}
	return m.eng
}

// invalidateEngine drops the norm cache after an update that moved
// existing document coordinates (fold-ins only append, so they extend the
// cache lazily instead).
func (m *Model) invalidateEngine() {
	m.engMu.Lock()
	m.eng = nil
	m.engMu.Unlock()
}

// Build computes the LSI model of a raw term–document count matrix.
func Build(raw *sparse.CSR, cfg Config) (*Model, error) {
	if raw.Rows == 0 || raw.Cols == 0 {
		return nil, errors.New("core: empty term-document matrix")
	}
	k := cfg.K
	if k <= 0 {
		k = 2
	}
	if mn := minInt(raw.Rows, raw.Cols); k > mn {
		k = mn
	}
	global := weight.GlobalWeights(raw, cfg.Scheme.Global)
	weighted := weight.Apply(raw, cfg.Scheme)

	factors, err := truncatedSVD(weighted, k, cfg)
	if err != nil {
		return nil, err
	}
	// Drop numerically-zero trailing triplets (rank < k).
	k = len(factors.S)
	for k > 0 && factors.S[k-1] <= 1e-12*maxFloat(factors.S[0], 1) {
		k--
	}
	if k == 0 {
		return nil, errors.New("core: matrix has no nonzero singular values")
	}
	factors = factors.Truncate(k)
	factors.FixSigns()
	return &Model{
		K:        k,
		U:        factors.U,
		S:        factors.S,
		V:        factors.V,
		Scheme:   cfg.Scheme,
		global:   global,
		svdDocs:  raw.Cols,
		svdTerms: raw.Rows,
	}, nil
}

// BuildCollection is Build over a parsed corpus.
func BuildCollection(c *corpus.Collection, cfg Config) (*Model, error) {
	return Build(c.TD, cfg)
}

func truncatedSVD(w *sparse.CSR, k int, cfg Config) (*dense.SVDFactors, error) {
	method := cfg.Method
	if method == MethodAuto {
		if w.Rows*w.Cols <= denseCutoff {
			method = MethodDense
		} else {
			method = MethodLanczos
		}
	}
	switch method {
	case MethodDense:
		f := dense.SVD(dense.NewFromRows(w.Dense()))
		return f.Truncate(k), nil
	case MethodLanczos:
		res, err := lanczos.TruncatedSVD(lanczos.OpCSR(w), lanczos.Options{K: k, Seed: cfg.Seed})
		if err != nil {
			// One retry with a longer recurrence before giving up.
			res, err = lanczos.TruncatedSVD(lanczos.OpCSR(w), lanczos.Options{
				K: k, Seed: cfg.Seed, MaxSteps: minInt(minInt(w.Rows, w.Cols), 8*k+64),
			})
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		return res.Factors(), nil
	case MethodRandomized:
		res := lanczos.RandomizedSVD(lanczos.OpCSR(w), lanczos.RandomizedOptions{K: k, Seed: cfg.Seed})
		return res.Factors(), nil
	}
	return nil, fmt.Errorf("core: unknown method %d", cfg.Method)
}

// Clone returns a deep copy of the model; mutating updates (folding,
// SVD-updating, weight correction) on the copy leave the original intact.
func (m *Model) Clone() *Model {
	return &Model{
		K:        m.K,
		U:        m.U.Clone(),
		S:        append([]float64(nil), m.S...),
		V:        m.V.Clone(),
		Scheme:   m.Scheme,
		global:   append([]float64(nil), m.global...),
		svdDocs:  m.svdDocs,
		svdTerms: m.svdTerms,
	}
}

// SharedClone returns a copy-on-write clone for snapshot publication: the
// factor matrices U and V and the global-weight table are shared with the
// receiver and only S is copied, so cloning costs O(k) instead of
// O((m+n)·k). The clone is safe to mutate concurrently with readers of
// the original because no mutating method writes below the length any
// model holds:
//
//   - FoldInDocs appends V's new rows past the receiver's length, into
//     spare capacity it has claimed along the chain of clones (V's claim
//     token travels with the clone; a sibling that loses the claim copies),
//     so a fold-in publishes in O(batch) rather than O(n·k);
//   - the global table is shared with its capacity clipped to its length,
//     so the appends of FoldInTerms and UpdateTerms reallocate;
//   - the SVD-updating phases multiply into freshly allocated matrices
//     (the in-place sign convention runs on those fresh factors only).
//
// Contract: at most one goroutine may mutate any given clone, and a model
// that has been SharedClone'd must itself no longer be mutated — the
// intended discipline is a single background updater that clones the
// current published snapshot, mutates the clone, and publishes it.
func (m *Model) SharedClone() *Model {
	return &Model{
		K:        m.K,
		U:        m.U,
		S:        append([]float64(nil), m.S...),
		V:        m.V,
		vClaim:   m.vClaim,
		vChained: m.vChained,
		Scheme:   m.Scheme,
		global:   clip(m.global),
		svdDocs:  m.svdDocs,
		svdTerms: m.svdTerms,
	}
}

// clip returns s with its capacity cut to its length, so an append to the
// result reallocates instead of writing into storage s's holders share.
func clip(s []float64) []float64 { return s[:len(s):len(s)] }

// DocSubsetView returns a model over the document subset idx (rows of V,
// kept in the given order), sharing the term-side factors (the U matrix
// pointer) with the receiver and copying the small per-model slices —
// the shard constructor: vocabulary and latent basis are global,
// document rows are local. Query projection depends only on the shared
// U, S, weights and Scheme, so a document folded into any view lands on
// coordinates bit-identical to folding it into the full model. When the
// receiver is unfolded the view is unfolded too (its rows count as SVD
// rows, so it can serve as an SVD-update base); a receiver that already
// contains folded document rows yields a view reporting every row
// folded, which disables update compaction — the same degradation
// engine.New applies to a folded model.
func (m *Model) DocSubsetView(idx []int) *Model {
	v := dense.New(len(idx), m.V.Cols)
	for r, j := range idx {
		copy(v.Row(r), m.V.Row(j))
	}
	return m.WithDocRows(v, m.FoldedDocs() == 0)
}

// WithDocRows returns a model whose document rows are v over the
// receiver's term side, shared and copied as DocSubsetView shares and
// copies them. The rows count as SVD rows when unfolded is set and as
// folded otherwise — DocSubsetView's rule, which a merge of several
// views sharing one basis (shard.ReadDatabase) applies with unfolded
// true only when every view is.
func (m *Model) WithDocRows(v *dense.Matrix, unfolded bool) *Model {
	svdDocs := 0
	if unfolded {
		svdDocs = v.Rows
	}
	return &Model{
		K:        m.K,
		U:        m.U,
		S:        append([]float64(nil), m.S...),
		V:        v,
		Scheme:   m.Scheme,
		global:   append([]float64(nil), m.global...),
		svdDocs:  svdDocs,
		svdTerms: m.svdTerms,
	}
}

// NumTerms returns the current term count (rows of U, including folded-in
// terms).
func (m *Model) NumTerms() int { return m.U.Rows }

// NumDocs returns the current document count (rows of V, including
// folded-in documents).
func (m *Model) NumDocs() int { return m.V.Rows }

// weightQuery applies the model's weighting scheme to a raw count vector
// over the current vocabulary.
func (m *Model) weightQuery(raw []float64) []float64 {
	if len(raw) != m.NumTerms() {
		panic(fmt.Sprintf("core: query len %d want %d terms", len(raw), m.NumTerms()))
	}
	out := make([]float64, len(raw))
	for i, f := range raw {
		g := 1.0
		if i < len(m.global) {
			g = m.global[i]
		}
		out[i] = m.Scheme.Local.Apply(f) * g
	}
	return out
}

// ProjectSparse maps raw term counts into k-space: q̂ = qᵀU_kΣ_k⁻¹ (Eq 6),
// the model's weighting scheme applied on the way. The same projection
// folds in a document (Eq 7): "folding-in documents is essentially the
// process described in §2.2 for query representation." It is a gather
// over the rows of U_k the counts name — 2·nnz(q)·k flops, not 2mk — and
// because q.Idx ascends, each q̂[c] accumulates its terms in the order a
// dense product over all m rows would, so the two agree to the last bit.
// The result is written to dst when it has room for k values (a fresh
// slice otherwise) and returned.
func (m *Model) ProjectSparse(q sparse.Vec, dst []float64) []float64 {
	if n := len(q.Idx); n > 0 && q.Idx[n-1] >= m.NumTerms() {
		panic(fmt.Sprintf("core: query term %d want < %d terms", q.Idx[n-1], m.NumTerms()))
	}
	if k := m.U.Cols; cap(dst) < k {
		dst = make([]float64, k)
	} else {
		dst = dst[:k]
		clear(dst)
	}
	for p, i := range q.Idx {
		w := m.Scheme.Local.Apply(q.Val[p])
		if i < len(m.global) {
			w *= m.global[i]
		}
		if w == 0 {
			continue
		}
		for c, u := range m.U.Row(i) {
			dst[c] += w * u
		}
	}
	for c := range dst {
		dst[c] /= m.S[c]
	}
	return dst
}

// ProjectQuery is ProjectSparse for a dense raw term-frequency vector
// over the current vocabulary.
func (m *Model) ProjectQuery(raw []float64) []float64 {
	if len(raw) != m.NumTerms() {
		panic(fmt.Sprintf("core: query len %d want %d terms", len(raw), m.NumTerms()))
	}
	return m.ProjectSparse(sparse.Compress(raw), nil)
}

// ProjectTerm maps a raw term-occurrence vector (1×n over current
// documents) into k-space: t̂ = tV_kΣ_k⁻¹ (Eq 8).
func (m *Model) ProjectTerm(raw []float64) []float64 {
	if len(raw) != m.NumDocs() {
		panic(fmt.Sprintf("core: term vector len %d want %d docs", len(raw), m.NumDocs()))
	}
	out := dense.MulVecT(m.V, raw)
	for c := range out {
		out[c] /= m.S[c]
	}
	return out
}

// DocVector returns document j's k-space representation (row j of V_k).
func (m *Model) DocVector(j int) []float64 { return m.V.Row(j) }

// TermVector returns term i's k-space representation (row i of U_k).
func (m *Model) TermVector(i int) []float64 { return m.U.Row(i) }

// DocCoords returns the σ-scaled document coordinates used for plotting
// (Figures 4–9): row j is v_j·Σ_k.
func (m *Model) DocCoords() *dense.Matrix {
	return dense.ScaleCols(m.V.Clone(), m.S)
}

// TermCoords returns the σ-scaled term coordinates (rows of U_k·Σ_k).
func (m *Model) TermCoords() *dense.Matrix {
	return dense.ScaleCols(m.U.Clone(), m.S)
}

// Similarity returns the cosine between a projected query and document j.
func (m *Model) Similarity(qhat []float64, j int) float64 {
	return dense.Cosine(qhat, m.V.Row(j))
}

// TermSimilarity returns the cosine between terms i and j in k-space — the
// term–term associative similarity used for the TOEFL synonym test and
// online thesauri (§5.4).
func (m *Model) TermSimilarity(i, j int) float64 {
	return dense.Cosine(m.U.Row(i), m.U.Row(j))
}

// Ranked is one scored document.
type Ranked struct {
	Doc   int
	Score float64
}

// cosineParallelCutoff is the doc-count × k work size above which the
// scoring engine fans out across goroutines; one dot product is ~2k
// flops, so small collections stay serial. (The same value gates the
// rank package's scans.)
const cosineParallelCutoff = 1 << 15

// CosinesAll returns the cosine of qhat against every document vector.
// "Efficiently comparing queries to documents" is one of the §5.6 open
// issues, and this scan is the latency-critical path of a deployed
// retrieval service: scores come from the cached unit-normalized document
// matrix (one dot product per document, the norm pass paid once at cache
// build), scanned in parallel on large collections.
func (m *Model) CosinesAll(qhat []float64) []float64 {
	return m.docEngine().Scores(qhat)
}

// Rank projects a raw query and returns all documents sorted by descending
// cosine. "Typically the z closest documents or all documents exceeding
// some cosine threshold are returned" (§2.2); callers slice or filter.
func (m *Model) Rank(rawQuery []float64) []Ranked {
	return rankScores(m.CosinesAll(m.ProjectQuery(rawQuery)))
}

// RankReconstruction ranks documents in the Σ-weighted coordinate system:
// the query becomes U_kᵀq (no Σ⁻¹) and document j becomes Σ_k·v_j, so the
// cosine equals the keyword vector model's cosine against the *rank-k
// reconstructed* matrix A_k. At k = rank(A) this reproduces keyword
// matching exactly — the limit §5.2 invokes ("with k=n factors A_k will
// exactly reconstruct A" and performance "must approach the level attained
// by standard vector methods"). The Eq (6) convention used by Rank weights
// low-σ dimensions up and does not have this property.
func (m *Model) RankReconstruction(rawQuery []float64) []Ranked {
	q := m.weightQuery(rawQuery)
	qhat := dense.MulVecT(m.U, q)
	// Normalize by ‖q‖ (not ‖U_kᵀq‖): qᵀU_kΣ_k v_j is exactly qᵀ(A_k)_j, so
	// with this normalization the score IS the keyword cosine against the
	// reconstructed column, and at k = rank(A) it equals the keyword
	// model's cosine to the last digit.
	qn := dense.Norm2(q)
	scores := make([]float64, m.NumDocs())
	doc := make([]float64, m.K)
	for j := range scores {
		v := m.V.Row(j)
		for c := range doc {
			doc[c] = m.S[c] * v[c]
		}
		dn := dense.Norm2(doc)
		if qn == 0 || dn == 0 {
			scores[j] = 0
			continue
		}
		scores[j] = dense.Dot(qhat, doc) / (qn * dn)
	}
	return rankScores(scores)
}

// RankVector ranks an already-projected k-space vector (e.g. a filtering
// profile or a relevance-feedback centroid).
func (m *Model) RankVector(qhat []float64) []Ranked {
	return rankScores(m.CosinesAll(qhat))
}

// RankTop projects a raw query and returns only the k best documents —
// "typically the z closest documents … are returned" (§2.2), and bounded
// heap selection finds them in O(n log k) instead of the O(n log n) full
// sort, with results identical to Rank(raw)[:k] including tie order.
func (m *Model) RankTop(rawQuery []float64, k int) []Ranked {
	return m.RankVectorTop(m.ProjectQuery(rawQuery), k)
}

// RankVectorTop is RankTop for an already-projected k-space vector.
func (m *Model) RankVectorTop(qhat []float64, k int) []Ranked {
	return toRanked(m.docEngine().TopK(qhat, k))
}

// RankBatch projects a block of raw queries and returns the top k
// documents for each. The whole block is scored as one cache-blocked
// parallel gemm against the normalized document matrix, so serving
// batched traffic costs far less per query than repeated Rank calls.
// Results are identical to calling RankTop per query.
func (m *Model) RankBatch(rawQueries [][]float64, k int) [][]Ranked {
	qhats := make([][]float64, len(rawQueries))
	for i, raw := range rawQueries {
		qhats[i] = m.ProjectQuery(raw)
	}
	return m.RankVectorBatch(qhats, k)
}

// RankVectorBatch is RankBatch for already-projected k-space vectors.
func (m *Model) RankVectorBatch(qhats [][]float64, k int) [][]Ranked {
	if len(qhats) == 0 {
		return nil
	}
	res := m.docEngine().TopKBatch(dense.NewFromRows(qhats), k)
	out := make([][]Ranked, len(res))
	for i, items := range res {
		out[i] = toRanked(items)
	}
	return out
}

// AboveThreshold returns the documents whose cosine with qhat meets the
// threshold, sorted descending. Only the survivors are sorted.
func (m *Model) AboveThreshold(qhat []float64, threshold float64) []Ranked {
	scores := m.docEngine().Scores(qhat)
	var out []Ranked
	for j, s := range scores {
		if s >= threshold {
			out = append(out, Ranked{Doc: j, Score: s})
		}
	}
	sortRanked(out)
	return out
}

func toRanked(items []rank.Item) []Ranked {
	out := make([]Ranked, len(items))
	for i, it := range items {
		out[i] = Ranked{Doc: it.Doc, Score: it.Score}
	}
	return out
}

func rankScores(scores []float64) []Ranked {
	out := make([]Ranked, len(scores))
	for j, s := range scores {
		out[j] = Ranked{Doc: j, Score: s}
	}
	sortRanked(out)
	return out
}

// sortRanked orders by descending score, ascending doc index on ties for
// determinism — the same total order the rank package selects under.
func sortRanked(out []Ranked) {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score { //lsilint:ignore floatcmp — total-order tie-break needs bit equality
			return out[a].Score > out[b].Score
		}
		return out[a].Doc < out[b].Doc
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
