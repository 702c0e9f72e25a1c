// Package lanczos computes truncated singular value decompositions of
// large sparse matrices by Golub–Kahan–Lanczos bidiagonalization, the same
// algorithm family as the SVDPACKC las2 solver the paper used for its TREC
// runs (§5.3). "The bulk of LSI processing time is spent in computing the
// truncated SVD of the large sparse term by document matrices" (§1) — this
// package is that bulk.
//
// The solver works against an abstract Operator so it can run on
// sparse.CSR, dense.Matrix, or composites (A_k | D) without materializing
// anything; its per-iteration cost is one Ax, one Aᵀx, and the
// reorthogonalization sweeps, exactly the cost model of Table 7.
//
// The build path is blocked: the Lanczos bases live in contiguous
// row-major dense.Matrix blocks, each two-pass reorthogonalization is a
// pair of Level-2 kernels (c = B·v, v ← v − Bᵀ·c) that parallelize with a
// worker-count-independent reduction order, the Ritz mapping is one tiled
// gemm per side, and all per-step workspace is preallocated so the
// iteration loop performs no heap allocations after warm-up. The seed
// implementation is preserved in reference_test.go for the property tests
// and BenchmarkBlockedBuildK16 / BenchmarkReferenceBuildK16.
package lanczos

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Operator is a linear map with access to its adjoint — everything the
// bidiagonalization needs.
type Operator interface {
	// Dims returns (rows, cols) of the operator.
	Dims() (m, n int)
	// Apply computes y = A·x (len(x)=cols, len(y)=rows).
	Apply(x, y []float64)
	// ApplyT computes y = Aᵀ·x (len(x)=rows, len(y)=cols).
	ApplyT(x, y []float64)
}

// BlockOperator is an Operator that can apply itself to a whole block of
// vectors at once — one pass over the matrix instead of one per vector.
// The randomized and subspace solvers use it for their power iterations;
// plain Operators fall back to column-at-a-time application.
type BlockOperator interface {
	Operator
	// ApplyBlock returns A·X for X cols×l (columns are vectors).
	ApplyBlock(x *dense.Matrix) *dense.Matrix
	// ApplyTBlock returns Aᵀ·X for X rows×l.
	ApplyTBlock(x *dense.Matrix) *dense.Matrix
}

// csrOp adapts sparse.CSR to Operator.
type csrOp struct{ m *sparse.CSR }

func (o csrOp) Dims() (int, int)      { return o.m.Rows, o.m.Cols }
func (o csrOp) Apply(x, y []float64)  { o.m.MulVec(x, y) }
func (o csrOp) ApplyT(x, y []float64) { o.m.MulVecT(x, y) }
func (o csrOp) ApplyBlock(x *dense.Matrix) *dense.Matrix {
	return &dense.Matrix{Rows: o.m.Rows, Cols: x.Cols, Data: o.m.MulDense(x.Data, x.Cols)}
}
func (o csrOp) ApplyTBlock(x *dense.Matrix) *dense.Matrix {
	return &dense.Matrix{Rows: o.m.Cols, Cols: x.Cols, Data: o.m.MulDenseT(x.Data, x.Cols)}
}

// OpCSR wraps a sparse matrix as an Operator.
func OpCSR(m *sparse.CSR) Operator { return csrOp{m} }

// denseOp adapts dense.Matrix to Operator. Apply/ApplyT write straight
// into the caller's buffer — no intermediate allocation.
type denseOp struct{ m *dense.Matrix }

func (o denseOp) Dims() (int, int)                          { return o.m.Rows, o.m.Cols }
func (o denseOp) Apply(x, y []float64)                      { dense.MulVecInto(o.m, x, y) }
func (o denseOp) ApplyT(x, y []float64)                     { dense.MulVecTInto(o.m, x, y) }
func (o denseOp) ApplyBlock(x *dense.Matrix) *dense.Matrix  { return dense.Mul(o.m, x) }
func (o denseOp) ApplyTBlock(x *dense.Matrix) *dense.Matrix { return dense.MulT(o.m, x) }

// OpDense wraps a dense matrix as an Operator.
func OpDense(m *dense.Matrix) Operator { return denseOp{m} }

// applyBlock computes A·X, using the block fast path when available.
func applyBlock(a Operator, x *dense.Matrix) *dense.Matrix {
	if bo, ok := a.(BlockOperator); ok {
		return bo.ApplyBlock(x)
	}
	m, _ := a.Dims()
	y := dense.New(m, x.Cols)
	xc := make([]float64, x.Rows)
	yc := make([]float64, m)
	for c := 0; c < x.Cols; c++ {
		for i := 0; i < x.Rows; i++ {
			xc[i] = x.At(i, c)
		}
		a.Apply(xc, yc)
		y.SetCol(c, yc)
	}
	return y
}

// applyTBlock computes Aᵀ·X, using the block fast path when available.
func applyTBlock(a Operator, x *dense.Matrix) *dense.Matrix {
	if bo, ok := a.(BlockOperator); ok {
		return bo.ApplyTBlock(x)
	}
	_, n := a.Dims()
	y := dense.New(n, x.Cols)
	xc := make([]float64, x.Rows)
	yc := make([]float64, n)
	for c := 0; c < x.Cols; c++ {
		for i := 0; i < x.Rows; i++ {
			xc[i] = x.At(i, c)
		}
		a.ApplyT(xc, yc)
		y.SetCol(c, yc)
	}
	return y
}

// Reorth selects the reorthogonalization policy.
type Reorth int

const (
	// FullReorth orthogonalizes every new Lanczos vector against the whole
	// basis (classical Gram–Schmidt, second pass applied adaptively).
	// Always accurate; O(j·n) extra per step.
	FullReorth Reorth = iota
	// NoReorth runs the textbook three-term recurrence untouched. Fast but
	// loses orthogonality and produces spurious duplicate Ritz values; kept
	// for the ablation benchmark.
	NoReorth
)

// Options configures TruncatedSVD.
type Options struct {
	// K is the number of singular triplets wanted (the paper uses 100–300).
	K int
	// MaxSteps caps the bidiagonalization length. 0 means
	// min(min(m,n), max(4K, K+32)).
	MaxSteps int
	// Tol is the convergence tolerance on the Ritz residual relative to
	// σ₁ (default 1e-10).
	Tol float64
	// Reorth selects the reorthogonalization policy (default FullReorth).
	Reorth Reorth
	// Seed drives the random starting vector; fixed default for
	// reproducibility.
	Seed int64
}

func (o *Options) fill(m, n int) {
	if o.K <= 0 {
		o.K = 1
	}
	if o.K > minInt(m, n) {
		o.K = minInt(m, n)
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = minInt(minInt(m, n), maxInt(4*o.K, o.K+32))
	}
	if o.MaxSteps < o.K {
		o.MaxSteps = o.K
	}
	if o.MaxSteps > minInt(m, n) {
		o.MaxSteps = minInt(m, n)
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
}

// Result is a truncated SVD: A ≈ U·diag(S)·Vᵀ with k columns.
type Result struct {
	U *dense.Matrix // m×k left singular vectors (term vectors in LSI)
	S []float64     // k singular values, descending
	V *dense.Matrix // n×k right singular vectors (document vectors)
	// Steps is the bidiagonalization length actually used.
	Steps int
	// Converged reports whether all K residuals met Tol (an exact-length
	// factorization, Steps == min(m,n), is always marked converged).
	Converged bool
	// MatVecs counts operator applications (Ax plus Aᵀx), the Table 7 cost
	// driver.
	MatVecs int
}

// Factors converts the result to dense.SVDFactors for interop.
func (r *Result) Factors() *dense.SVDFactors {
	return &dense.SVDFactors{U: r.U, S: r.S, V: r.V}
}

var ErrNotConverged = errors.New("lanczos: not converged within MaxSteps")

// reorthEta is the Daniel–Gragg–Kaufman criterion for the adaptive second
// Gram–Schmidt pass: if one pass left at least 1/√2 of the vector's norm,
// the projection was benign and the pass is not repeated; otherwise heavy
// cancellation occurred and a second (rarely, third) pass runs. This keeps
// the basis orthogonal to machine precision at roughly half the sweeps of
// an unconditional two-pass scheme.
const reorthEta = 0.70710678118654752

// reorthBlocked orthogonalizes v against the rows of basis with classical
// Gram–Schmidt expressed as two Level-2 kernels: c = B·v, then
// v ← v − Bᵀ·c. coef is caller-owned workspace of length basis.Rows. The
// pass repeats (up to twice more) only while the DGK criterion detects
// heavy cancellation.
//
//lsilint:noalloc
func reorthBlocked(basis *dense.Matrix, v, coef []float64) {
	if basis.Rows == 0 {
		return
	}
	prev := dense.Norm2(v)
	for pass := 0; pass < 3; pass++ {
		// The blocked matvecs spawn worker goroutines above the parallel
		// threshold — a per-block launch amortized over the whole Level-2
		// kernel, not a per-element allocation.
		dense.MulVecInto(basis, v, coef)         //lsilint:ignore noalloctrans
		dense.MulVecTAddInto(-1, basis, coef, v) //lsilint:ignore noalloctrans
		nrm := dense.Norm2(v)
		if nrm >= reorthEta*prev {
			return
		}
		prev = nrm
	}
}

// bidiagStep advances the Golub–Kahan recurrence by one step, writing
// u_j and v_{j+1} directly into rows j of ub and j+1 of vb:
//
//	u_j = A·v_j − β_{j−1}·u_{j−1}, reorthogonalized, normalized
//	v_{j+1} = Aᵀ·u_j − α_j·v_j, same treatment
//
// It returns (α_j, β_j); when α_j underflows, β_j is 0 and the second
// matvec never ran (the caller's MatVecs accounting relies on this).
// uview/vview are reusable window headers and coef is scratch of length
// ≥ j+1, all caller-owned so the step itself stays allocation-free.
//
//lsilint:noalloc
func bidiagStep(a Operator, ub, vb, uview, vview *dense.Matrix, coef []float64, betaPrev float64, j int, reorth Reorth) (alpha, beta float64) {
	// The Operator methods dispatch through the interface, which the
	// transitive check cannot see through; both implementations (sparse
	// CSR and the dense mirror) write into caller-owned buffers and are
	// covered by their own noalloc annotations and benchmarks.
	m, n := a.Dims() //lsilint:ignore noalloctrans
	urow := ub.Row(j)
	a.Apply(vb.Row(j), urow) //lsilint:ignore noalloctrans
	if j > 0 {
		dense.Axpy(-betaPrev, ub.Row(j-1), urow)
	}
	if reorth == FullReorth && j > 0 {
		uview.Rows, uview.Data = j, ub.Data[:j*m]
		reorthBlocked(uview, urow, coef[:j])
	}
	alpha = dense.Normalize(urow)
	if alpha <= 1e-300 {
		return alpha, 0
	}

	vrow := vb.Row(j + 1)
	a.ApplyT(urow, vrow) //lsilint:ignore noalloctrans
	dense.Axpy(-alpha, vb.Row(j), vrow)
	if reorth == FullReorth {
		vview.Rows, vview.Data = j+1, vb.Data[:(j+1)*n]
		reorthBlocked(vview, vrow, coef[:j+1])
	}
	beta = dense.Normalize(vrow)
	return alpha, beta
}

// TruncatedSVD computes the K largest singular triplets of A.
//
// It runs Golub–Kahan bidiagonalization A·V_j = U_j·B_j,
// Aᵀ·U_j = V_j·B_jᵀ + β_j v_{j+1} e_jᵀ, keeping both Lanczos bases in
// contiguous row-major blocks so reorthogonalization runs as blocked gemv
// pairs. Every Options.K/4 steps it computes the dense SVD of the small
// projected bidiagonal B_j (reusing one buffer) and checks the K-th Ritz
// residual β_j·|p_K[j]| against Tol·σ₁ from B_j's left factor alone; the
// full-space Ritz vectors are materialized — one tiled gemm per side —
// only once the residuals actually pass (or the recurrence runs out).
//
// If convergence is not reached, the best available estimate is returned
// together with ErrNotConverged so callers can retry with larger MaxSteps.
func TruncatedSVD(a Operator, opts Options) (*Result, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &Result{U: dense.New(m, 0), V: dense.New(n, 0), Converged: true}, nil
	}
	opts.fill(m, n)
	k := opts.K
	steps := opts.MaxSteps
	rng := rand.New(rand.NewSource(opts.Seed + 0x1db))

	// Contiguous Lanczos bases: row j of ub/vb is u_j/v_j. Preallocated at
	// the recurrence cap so the iteration loop never grows them; uview and
	// vview are reusable window headers over the filled prefixes.
	ub := dense.New(steps, m)
	vb := dense.New(steps+1, n)
	uview := &dense.Matrix{Cols: m}
	vview := &dense.Matrix{Cols: n}
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps)
	coef := make([]float64, steps+1) // reorthogonalization coefficients

	// Reused buffer for the projected bidiagonal matrix B_j.
	var bbuf []float64
	bmat := &dense.Matrix{}
	projected := func(j int) *dense.SVDFactors {
		if cap(bbuf) < j*j {
			bbuf = make([]float64, j*j)
		}
		data := bbuf[:j*j]
		for i := range data {
			data[i] = 0
		}
		for i := 0; i < j; i++ {
			data[i*j+i] = alphas[i]
			if i+1 < j {
				data[i*j+i+1] = betas[i]
			}
		}
		bmat.Rows, bmat.Cols, bmat.Data = j, j, data
		return dense.SVD(bmat)
	}

	// Start inside the row space of A: v₁ ∝ Aᵀu₀ for random u₀. A plain
	// random v₁ carries a null-space component that can never be purged by
	// the recurrence; starting in the row space guarantees breakdown at
	// rank(A) steps with an exact factorization.
	v0 := vb.Row(0)
	a.ApplyT(randomUnit(rng, m), v0)
	matvecs := 1
	if dense.Normalize(v0) == 0 {
		// Aᵀ annihilated a random vector: treat A as (numerically) zero.
		return &Result{U: dense.New(m, 0), S: nil, V: dense.New(n, 0), Converged: true, MatVecs: matvecs}, nil
	}

	checkEvery := maxInt(1, k/4)
	nu := 0 // completed basis vectors on each side
	for j := 0; j < steps; j++ {
		betaPrev := 0.0
		if j > 0 {
			betaPrev = betas[j-1]
		}
		alpha, beta := bidiagStep(a, ub, vb, uview, vview, coef, betaPrev, j, opts.Reorth)
		matvecs++ // A·v_j
		if alpha <= 1e-300 {
			// Invariant subspace: the operator has rank ≤ j. Everything we
			// can get is already in hand.
			break
		}
		matvecs++ // Aᵀ·u_j
		nu = j + 1
		alphas = append(alphas, alpha)
		betas = append(betas, beta)
		if beta <= 1e-300 {
			// Exact invariant subspace on the right: factorization is exact
			// with j+1 steps.
			break
		}

		// Amortized convergence check: SVD of the small projected problem
		// only — residuals come from the last row of its left factor, and
		// no full-space Ritz vector is touched unless they all pass.
		if j+1 >= k && ((j+1)%checkEvery == 0 || j+1 == steps) {
			f := projected(nu)
			if ritzConverged(f, nu, k, betas[nu-1], opts.Tol) {
				res := materializeRitz(ub, vb, f, nu, k, m, n)
				res.Converged = true
				res.MatVecs = matvecs
				return res, nil
			}
		}
	}

	// Ran out of steps or hit an invariant subspace. If the basis spans
	// the whole smaller dimension, or a breakdown occurred (nu < steps),
	// the factorization is exact.
	if nu == 0 {
		// A is (numerically) zero.
		return &Result{U: dense.New(m, 0), S: nil, V: dense.New(n, 0), Converged: true, MatVecs: matvecs}, nil
	}
	exact := nu < steps || nu >= minInt(m, n)
	kk := minInt(k, nu)
	f := projected(nu)
	betaLast := 0.0
	if len(betas) >= nu {
		betaLast = betas[nu-1]
	}
	done := exact || ritzConverged(f, nu, kk, betaLast, opts.Tol)
	res := materializeRitz(ub, vb, f, nu, kk, m, n)
	res.MatVecs = matvecs
	if done {
		res.Converged = true
		return res, nil
	}
	return res, ErrNotConverged
}

// ritzConverged checks the K Ritz residuals of the projected factorization
// f (of the j×j bidiagonal B_j) against tol·σ₁. Residual of triplet i is
// β_j·|U_B[j−1, i]| — last row of the small left factor only, no
// full-space work.
func ritzConverged(f *dense.SVDFactors, j, k int, betaLast, tol float64) bool {
	sigma1 := 1.0
	if len(f.S) > 0 && f.S[0] > 0 {
		sigma1 = f.S[0]
	}
	for i := 0; i < k; i++ {
		if betaLast*math.Abs(f.U.At(j-1, i)) > tol*sigma1 {
			return false
		}
	}
	return true
}

// materializeRitz maps the projected singular vectors back to the full
// space: U_out = [u_1 … u_j]ᵀ-block · P_k and likewise for V — one tiled
// parallel gemm per side instead of k·j per-column Axpy sweeps.
func materializeRitz(ub, vb *dense.Matrix, f *dense.SVDFactors, j, k, m, n int) *Result {
	if k > j {
		k = j
	}
	s := make([]float64, k)
	copy(s, f.S[:k])
	pu := f.U.Slice(0, j, 0, k)
	pv := f.V.Slice(0, j, 0, k)
	uBasis := &dense.Matrix{Rows: j, Cols: m, Data: ub.Data[:j*m]}
	vBasis := &dense.Matrix{Rows: j, Cols: n, Data: vb.Data[:j*n]}
	return &Result{
		U:     dense.MulT(uBasis, pu), // (j×m)ᵀ·(j×k) = m×k
		S:     s,
		V:     dense.MulT(vBasis, pv), // (j×n)ᵀ·(j×k) = n×k
		Steps: j,
	}
}

func randomUnit(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if dense.Normalize(v) == 0 {
		v[0] = 1
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Verify returns max over the k triplets of ‖A vᵢ − σᵢ uᵢ‖ / σ₁ — a direct
// a-posteriori accuracy check used by tests and internal/experiments.
func Verify(a Operator, r *Result) float64 {
	m, _ := a.Dims()
	if len(r.S) == 0 {
		return 0
	}
	worst := 0.0
	y := make([]float64, m)
	for i := 0; i < len(r.S); i++ {
		a.Apply(r.V.Col(i), y)
		u := r.U.Col(i)
		for p := range y {
			y[p] -= r.S[i] * u[p]
		}
		res := dense.Norm2(y) / maxFloat(r.S[0], 1e-300)
		if res > worst {
			worst = res
		}
	}
	return worst
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
