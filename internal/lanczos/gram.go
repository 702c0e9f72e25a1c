package lanczos

import (
	"math"
	"math/rand"

	"repro/internal/dense"
)

// TruncatedSVDGram computes the K largest singular triplets by Lanczos
// tridiagonalization of the Gram matrix AᵀA — the exact formulation of
// SVDPACKC's las2 ("single-vector Lanczos algorithm on AᵀA", the solver the
// paper used for its TREC runs). Each step costs one Ax and one Aᵀx; the
// projected problem is symmetric tridiagonal and is solved with the
// implicit-QL eigensolver; left vectors are recovered as uᵢ = A·vᵢ/σᵢ,
// "the additional multiplication by G required to extract the left singular
// vector" in §4.2's cost model.
//
// Compared to the bidiagonalization in TruncatedSVD, the Gram route squares
// the condition number (σ below √ε·σ₁ lose all accuracy) — which is why
// both are provided and cross-tested. For LSI's k largest triplets the two
// agree to machine precision.
func TruncatedSVDGram(a Operator, opts Options) (*Result, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &Result{U: dense.New(m, 0), V: dense.New(n, 0), Converged: true}, nil
	}
	opts.fill(m, n)
	k := opts.K
	// The Lanczos basis lives on the smaller side; work with Aᵀ if needed
	// so the tridiagonal problem has the smaller dimension.
	if n > m {
		res, err := TruncatedSVDGram(transposeOp{a}, opts)
		if err != nil {
			return nil, err
		}
		res.U, res.V = res.V, res.U
		return res, nil
	}
	// Now n ≤ m: Lanczos on AᵀA in R^n... (dims already favorable).
	steps := opts.MaxSteps
	rng := rand.New(rand.NewSource(opts.Seed + 0x97a3))

	vs := make([][]float64, 0, steps)
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps) // betas[j] couples v_j and v_{j+1}

	// Start in the row space (see TruncatedSVD).
	v := make([]float64, n)
	a.ApplyT(randomUnit(rng, m), v)
	if dense.Normalize(v) == 0 {
		return &Result{U: dense.New(m, 0), S: nil, V: dense.New(n, 0), Converged: true, MatVecs: 1}, nil
	}
	vs = append(vs, v)

	tmpM := make([]float64, m)
	w := make([]float64, n)
	matvecs := 1
	breakdown := false

	for j := 0; j < steps; j++ {
		// w = AᵀA v_j
		a.Apply(vs[j], tmpM)
		a.ApplyT(tmpM, w)
		matvecs += 2
		alpha := dense.Dot(vs[j], w)
		alphas = append(alphas, alpha)
		wc := append([]float64(nil), w...)
		dense.Axpy(-alpha, vs[j], wc)
		if j > 0 {
			dense.Axpy(-betas[j-1], vs[j-1], wc)
		}
		if opts.Reorth == FullReorth {
			reorthogonalize(wc, vs)
		}
		beta := dense.Normalize(wc)
		if beta <= 1e-300 {
			breakdown = true
			break
		}
		betas = append(betas, beta)
		if j+1 < steps {
			vs = append(vs, wc)
		}
	}

	j := len(alphas)
	exact := breakdown || j >= n
	lam, y, err := dense.EigSymTridiagonal(alphas, betas[:minInt(len(betas), j-1)], true)
	if err != nil {
		return nil, err
	}
	if k > j {
		k = j
	}
	// Largest k eigenvalues are at the tail (ascending order).
	uOut := dense.New(m, k)
	vOut := dense.New(n, k)
	s := make([]float64, k)
	vcol := make([]float64, n)
	converged := true
	betaLast := 0.0
	if len(betas) >= j && j > 0 {
		betaLast = betas[j-1]
	}
	lamMax := math.Abs(lam[len(lam)-1])
	if lamMax == 0 {
		lamMax = 1
	}
	for c := 0; c < k; c++ {
		src := len(lam) - 1 - c
		l := lam[src]
		if l < 0 {
			l = 0
		}
		s[c] = math.Sqrt(l)
		for i := range vcol {
			vcol[i] = 0
		}
		for r := 0; r < j; r++ {
			if yc := y.At(r, src); yc != 0 {
				dense.Axpy(yc, vs[minInt(r, len(vs)-1)], vcol)
			}
		}
		// Ritz residual for the eigenpair: β_j·|y[last]|.
		if !exact && betaLast*math.Abs(y.At(j-1, src)) > opts.Tol*lamMax {
			converged = false
		}
		vOut.SetCol(c, vcol)
		// u = A v / σ.
		a.Apply(vcol, tmpM)
		matvecs++
		if s[c] > 1e-300 {
			uc := append([]float64(nil), tmpM...)
			dense.ScaleVec(1/s[c], uc)
			uOut.SetCol(c, uc)
		}
	}
	res := &Result{U: uOut, S: s, V: vOut, Steps: j, Converged: converged || exact, MatVecs: matvecs}
	if !res.Converged {
		return res, ErrNotConverged
	}
	return res, nil
}

// transposeOp flips an operator's Apply/ApplyT.
type transposeOp struct{ a Operator }

func (t transposeOp) Dims() (int, int) {
	m, n := t.a.Dims()
	return n, m
}
func (t transposeOp) Apply(x, y []float64)  { t.a.ApplyT(x, y) }
func (t transposeOp) ApplyT(x, y []float64) { t.a.Apply(x, y) }

// SubspaceIteration computes the K largest singular triplets by the
// subspace (simultaneous) iteration method — the sis algorithm of SVDPACK.
// It repeatedly applies AᵀA to an n×(K+oversample) block, orthonormalizing
// between applications, then solves the small Rayleigh–Ritz problem
// H = (AX)ᵀ(AX). Simpler and more regular than Lanczos (all passes are
// blocked mat-mats, friendly to parallel kernels) but needs more passes for
// clustered spectra.
func SubspaceIteration(a Operator, opts Options, oversample, iters int) *Result {
	m, n := a.Dims()
	if opts.K <= 0 {
		opts.K = 1
	}
	if oversample <= 0 {
		oversample = 6
	}
	if iters <= 0 {
		iters = 30
	}
	l := minInt(opts.K+oversample, minInt(m, n))
	rng := rand.New(rand.NewSource(opts.Seed + 0x515))

	x := dense.New(n, l)
	col := make([]float64, n)
	tmpM := make([]float64, m)
	for c := 0; c < l; c++ {
		a.ApplyT(randomUnit(rng, m), col)
		x.SetCol(c, append([]float64(nil), col...))
	}
	dense.GramSchmidt(x)
	matvecs := l

	for it := 0; it < iters; it++ {
		for c := 0; c < l; c++ {
			a.Apply(x.Col(c), tmpM)
			a.ApplyT(tmpM, col)
			matvecs += 2
			x.SetCol(c, append([]float64(nil), col...))
		}
		dense.GramSchmidt(x)
	}

	// Rayleigh–Ritz: W = A X (m×l), H = WᵀW, eig via SVD of W.
	w := dense.New(m, l)
	for c := 0; c < l; c++ {
		a.Apply(x.Col(c), tmpM)
		matvecs++
		w.SetCol(c, append([]float64(nil), tmpM...))
	}
	f := dense.SVD(w)
	k := minInt(opts.K, len(f.S))
	s := make([]float64, k)
	copy(s, f.S[:k])
	return &Result{
		U:         f.U.Slice(0, m, 0, k),
		S:         s,
		V:         dense.Mul(x, f.V.Slice(0, l, 0, k)),
		Steps:     iters,
		Converged: true,
		MatVecs:   matvecs,
	}
}

// reorthogonalize removes the components of v along every basis vector,
// with a second pass for numerical safety (the "twice is enough" rule).
// Serial modified Gram–Schmidt; the reference Lanczos in the tests shares it.
func reorthogonalize(v []float64, basis [][]float64) {
	for pass := 0; pass < 2; pass++ {
		for _, b := range basis {
			dense.Axpy(-dense.Dot(b, v), b, v)
		}
	}
}
