package lanczos

import (
	"math"
	"math/rand"

	"repro/internal/dense"
)

// This file preserves the pre-blocked Golub–Kahan solver exactly as it
// shipped in the seed: slice-of-slice bases, serial per-vector
// reorthogonalization sweeps, two fresh vector allocations per step, and a
// full Ritz-vector materialization at every convergence check. It is the
// frozen baseline that the blocked build path is property-tested
// (blocked_test.go) and benchmarked (BenchmarkReferenceBuildK16) against —
// test code only.

// TruncatedSVDReference computes the K largest singular triplets of A with
// the seed (pre-blocked) implementation. Same contract as TruncatedSVD.
func TruncatedSVDReference(a Operator, opts Options) (*Result, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &Result{U: dense.New(m, 0), V: dense.New(n, 0), Converged: true}, nil
	}
	opts.fill(m, n)
	k := opts.K
	steps := opts.MaxSteps
	rng := rand.New(rand.NewSource(opts.Seed + 0x1db))

	// Lanczos bases, stored row-per-vector for cache-friendly
	// reorthogonalization sweeps.
	us := make([][]float64, 0, steps) // each length m
	vs := make([][]float64, 0, steps) // each length n
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps)

	// Start inside the row space of A: v₁ ∝ Aᵀu₀ for random u₀.
	v := make([]float64, n)
	a.ApplyT(randomUnit(rng, m), v)
	if dense.Normalize(v) == 0 {
		return &Result{U: dense.New(m, 0), S: nil, V: dense.New(n, 0), Converged: true, MatVecs: 1}, nil
	}
	vs = append(vs, v)

	tmpM := make([]float64, m)
	tmpN := make([]float64, n)
	matvecs := 0

	checkEvery := maxInt(1, k/4)

	breakdown := false
	var lastResult *Result
	for j := 0; j < steps; j++ {
		// u_j = A v_j − β_{j−1} u_{j−1}
		a.Apply(vs[j], tmpM)
		matvecs++
		u := append([]float64(nil), tmpM...)
		if j > 0 {
			dense.Axpy(-betas[j-1], us[j-1], u)
		}
		if opts.Reorth == FullReorth {
			reorthogonalize(u, us)
		}
		alpha := dense.Normalize(u)
		if alpha <= 1e-300 {
			breakdown = true
			break
		}
		us = append(us, u)
		alphas = append(alphas, alpha)

		// v_{j+1} = Aᵀ u_j − α_j v_j
		a.ApplyT(u, tmpN)
		matvecs++
		vNext := append([]float64(nil), tmpN...)
		dense.Axpy(-alpha, vs[j], vNext)
		if opts.Reorth == FullReorth {
			reorthogonalize(vNext, vs)
		}
		beta := dense.Normalize(vNext)
		betas = append(betas, beta)
		if beta <= 1e-300 {
			breakdown = true
			break
		}
		vs = append(vs, vNext)

		// Convergence check on the projected problem.
		if j+1 >= k && ((j+1)%checkEvery == 0 || j+1 == steps) {
			res, done := extractReference(us, vs[:len(us)], alphas, betas, k, opts.Tol, false)
			res.MatVecs = matvecs
			lastResult = res
			if done {
				res.Converged = true
				return res, nil
			}
		}
	}

	exact := breakdown || len(us) >= minInt(m, n)
	if len(us) == 0 {
		z := &Result{U: dense.New(m, 0), S: nil, V: dense.New(n, 0), Converged: true, MatVecs: matvecs}
		return z, nil
	}
	res, done := extractReference(us, vs[:len(us)], alphas, betas, minInt(k, len(us)), opts.Tol, exact)
	res.MatVecs = matvecs
	if done || exact {
		res.Converged = true
		return res, nil
	}
	if lastResult != nil && len(lastResult.S) >= len(res.S) {
		res = lastResult
	}
	return res, ErrNotConverged
}

// extractReference solves the small projected SVD and maps Ritz vectors
// back to the full space column-by-column with per-vector Axpy sweeps —
// the seed extraction retained for the baseline.
func extractReference(us, vs [][]float64, alphas, betas []float64, k int, tol float64, exact bool) (*Result, bool) {
	j := len(us)
	b := dense.New(j, j)
	for i := 0; i < j; i++ {
		b.Set(i, i, alphas[i])
		if i+1 < j {
			b.Set(i, i+1, betas[i])
		}
	}
	f := dense.SVD(b)
	if k > j {
		k = j
	}

	m := len(us[0])
	n := len(vs[0])
	u := dense.New(m, k)
	v := dense.New(n, k)
	s := make([]float64, k)
	copy(s, f.S[:k])

	// U_out = [u_1 … u_j]·P_k ; V_out = [v_1 … v_j]·Q_k.
	ucol := make([]float64, m)
	vcol := make([]float64, n)
	for c := 0; c < k; c++ {
		for i := range ucol {
			ucol[i] = 0
		}
		for i := range vcol {
			vcol[i] = 0
		}
		for r := 0; r < j; r++ {
			if pu := f.U.At(r, c); pu != 0 {
				dense.Axpy(pu, us[r], ucol)
			}
			if pv := f.V.At(r, c); pv != 0 {
				dense.Axpy(pv, vs[r], vcol)
			}
		}
		u.SetCol(c, ucol)
		v.SetCol(c, vcol)
	}

	res := &Result{U: u, S: s, V: v, Steps: j}
	if exact {
		return res, true
	}
	betaLast := 0.0
	if len(betas) >= j {
		betaLast = betas[j-1]
	}
	sigma1 := 1.0
	if len(f.S) > 0 && f.S[0] > 0 {
		sigma1 = f.S[0]
	}
	for i := 0; i < k; i++ {
		if betaLast*math.Abs(f.U.At(j-1, i)) > tol*sigma1 {
			return res, false
		}
	}
	return res, true
}
