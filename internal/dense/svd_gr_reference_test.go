package dense

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// svdGolubReinschReference is SVDGolubReinsch as first written: textbook
// loops over the bounds-checked At/Set accessors. It is kept as the
// reference the array-indexed production routine must match bit for bit
// (TestSVDGolubReinschMatchesReference).
func svdGolubReinschReference(a *Matrix) (*SVDFactors, error) {
	if a.Rows < a.Cols {
		f, err := svdGolubReinschReference(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDFactors{U: f.V, S: f.S, V: f.U}, nil
	}
	m, n := a.Rows, a.Cols
	if n == 0 {
		return &SVDFactors{U: New(m, 0), S: nil, V: New(0, 0)}, nil
	}

	u := a.Clone() // becomes U in place
	w := make([]float64, n)
	rv1 := make([]float64, n)
	v := New(n, n)

	var g, scale, anorm float64

	// Householder reduction to bidiagonal form.
	for i := 0; i < n; i++ {
		l := i + 1
		rv1[i] = scale * g
		g, scale = 0, 0
		if i < m {
			for k := i; k < m; k++ {
				scale += math.Abs(u.At(k, i))
			}
			if scale != 0 {
				var s float64
				for k := i; k < m; k++ {
					u.Set(k, i, u.At(k, i)/scale)
					s += u.At(k, i) * u.At(k, i)
				}
				f := u.At(i, i)
				g = -math.Copysign(math.Sqrt(s), f)
				h := f*g - s
				u.Set(i, i, f-g)
				for j := l; j < n; j++ {
					var sum float64
					for k := i; k < m; k++ {
						sum += u.At(k, i) * u.At(k, j)
					}
					fac := sum / h
					for k := i; k < m; k++ {
						u.Set(k, j, u.At(k, j)+fac*u.At(k, i))
					}
				}
				for k := i; k < m; k++ {
					u.Set(k, i, u.At(k, i)*scale)
				}
			}
		}
		w[i] = scale * g
		g, scale = 0, 0
		if i < m && i != n-1 {
			for k := l; k < n; k++ {
				scale += math.Abs(u.At(i, k))
			}
			if scale != 0 {
				var s float64
				for k := l; k < n; k++ {
					u.Set(i, k, u.At(i, k)/scale)
					s += u.At(i, k) * u.At(i, k)
				}
				f := u.At(i, l)
				g = -math.Copysign(math.Sqrt(s), f)
				h := f*g - s
				u.Set(i, l, f-g)
				for k := l; k < n; k++ {
					rv1[k] = u.At(i, k) / h
				}
				for j := l; j < m; j++ {
					var sum float64
					for k := l; k < n; k++ {
						sum += u.At(j, k) * u.At(i, k)
					}
					for k := l; k < n; k++ {
						u.Set(j, k, u.At(j, k)+sum*rv1[k])
					}
				}
				for k := l; k < n; k++ {
					u.Set(i, k, u.At(i, k)*scale)
				}
			}
		}
		if an := math.Abs(w[i]) + math.Abs(rv1[i]); an > anorm {
			anorm = an
		}
	}

	// Accumulate right-hand transformations.
	for i := n - 1; i >= 0; i-- {
		l := i + 1
		if i < n-1 {
			if g != 0 {
				for j := l; j < n; j++ {
					v.Set(j, i, (u.At(i, j)/u.At(i, l))/g)
				}
				for j := l; j < n; j++ {
					var s float64
					for k := l; k < n; k++ {
						s += u.At(i, k) * v.At(k, j)
					}
					for k := l; k < n; k++ {
						v.Set(k, j, v.At(k, j)+s*v.At(k, i))
					}
				}
			}
			for j := l; j < n; j++ {
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		}
		v.Set(i, i, 1)
		g = rv1[i]
	}

	// Accumulate left-hand transformations.
	for i := minInt(m, n) - 1; i >= 0; i-- {
		l := i + 1
		g = w[i]
		for j := l; j < n; j++ {
			u.Set(i, j, 0)
		}
		if g != 0 {
			g = 1 / g
			for j := l; j < n; j++ {
				var s float64
				for k := l; k < m; k++ {
					s += u.At(k, i) * u.At(k, j)
				}
				f := (s / u.At(i, i)) * g
				for k := i; k < m; k++ {
					u.Set(k, j, u.At(k, j)+f*u.At(k, i))
				}
			}
			for j := i; j < m; j++ {
				u.Set(j, i, u.At(j, i)*g)
			}
		} else {
			for j := i; j < m; j++ {
				u.Set(j, i, 0)
			}
		}
		u.Set(i, i, u.At(i, i)+1)
	}

	// Diagonalize the bidiagonal form by implicit-shift QR.
	const maxIter = 75
	for k := n - 1; k >= 0; k-- {
		for iter := 0; ; iter++ {
			if iter > maxIter {
				return nil, fmt.Errorf("dense: Golub-Reinsch SVD did not converge for singular value %d", k)
			}
			flag := true
			var l, nm int
			for l = k; l >= 0; l-- {
				nm = l - 1
				if math.Abs(rv1[l])+anorm == anorm { //lsilint:ignore floatcmp — negligibility test: exact equality after absorption is the point
					flag = false
					break
				}
				if math.Abs(w[nm])+anorm == anorm { //lsilint:ignore floatcmp — negligibility test
					break
				}
			}
			if flag {
				// Cancellation of rv1[l] for l > 0 with w[l-1] ≈ 0.
				c, s := 0.0, 1.0
				for i := l; i <= k; i++ {
					f := s * rv1[i]
					rv1[i] = c * rv1[i]
					if math.Abs(f)+anorm == anorm { //lsilint:ignore floatcmp — negligibility test
						break
					}
					g = w[i]
					h := pythag(f, g)
					w[i] = h
					h = 1 / h
					c = g * h
					s = -f * h
					for j := 0; j < m; j++ {
						y := u.At(j, nm)
						z := u.At(j, i)
						u.Set(j, nm, y*c+z*s)
						u.Set(j, i, z*c-y*s)
					}
				}
			}
			z := w[k]
			if l == k {
				// Converged; enforce non-negative singular value.
				if z < 0 {
					w[k] = -z
					for j := 0; j < n; j++ {
						v.Set(j, k, -v.At(j, k))
					}
				}
				break
			}
			// Shift from bottom 2x2 minor.
			x := w[l]
			nm = k - 1
			y := w[nm]
			g = rv1[nm]
			h := rv1[k]
			f := ((y-z)*(y+z) + (g-h)*(g+h)) / (2 * h * y)
			g = pythag(f, 1)
			f = ((x-z)*(x+z) + h*((y/(f+math.Copysign(g, f)))-h)) / x
			c, s := 1.0, 1.0
			for j := l; j <= nm; j++ {
				i := j + 1
				g = rv1[i]
				y = w[i]
				h = s * g
				g = c * g
				zz := pythag(f, h)
				rv1[j] = zz
				c = f / zz
				s = h / zz
				f = x*c + g*s
				g = g*c - x*s
				h = y * s
				y *= c
				for jj := 0; jj < n; jj++ {
					xv := v.At(jj, j)
					zv := v.At(jj, i)
					v.Set(jj, j, xv*c+zv*s)
					v.Set(jj, i, zv*c-xv*s)
				}
				zz = pythag(f, h)
				w[j] = zz
				if zz != 0 {
					zz = 1 / zz
					c = f * zz
					s = h * zz
				}
				f = c*g + s*y
				x = c*y - s*g
				for jj := 0; jj < m; jj++ {
					yu := u.At(jj, j)
					zu := u.At(jj, i)
					u.Set(jj, j, yu*c+zu*s)
					u.Set(jj, i, zu*c-yu*s)
				}
			}
			rv1[l] = 0
			rv1[k] = f
			w[k] = x
		}
	}

	// Sort singular values descending, permuting U and V columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w[idx[i]] > w[idx[j]] })
	uo := New(m, n)
	vo := New(n, n)
	so := make([]float64, n)
	for out, src := range idx {
		so[out] = w[src]
		for i := 0; i < m; i++ {
			uo.Set(i, out, u.At(i, src))
		}
		for i := 0; i < n; i++ {
			vo.Set(i, out, v.At(i, src))
		}
	}
	return &SVDFactors{U: uo, S: so, V: vo}, nil
}

// TestSVDGolubReinschMatchesReference pins the array-indexed routine to
// the accessor-based reference bit for bit: every singular value and
// every entry of U and V, over empty, square, tall, wide, rank-deficient
// and graded inputs at several scales.
func TestSVDGolubReinschMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type tc struct {
		name string
		a    *Matrix
	}
	var cases []tc
	for _, sh := range [][2]int{{0, 0}, {1, 1}, {3, 0}, {0, 3}, {2, 2}, {7, 7}, {40, 40},
		{120, 120}, {300, 300}, {50, 8}, {300, 24}, {8, 50}, {24, 300}, {1, 9}, {9, 1}} {
		for _, scale := range []float64{1e-3, 1, 1e2} {
			if sh[0]*sh[1] > 20000 && scale != 1 {
				continue // the reference is slow at this size; one scale will do
			}
			a := randomMatrix(rng, sh[0], sh[1])
			for i := range a.Data {
				a.Data[i] *= scale
			}
			cases = append(cases, tc{fmt.Sprintf("%dx%d*%g", sh[0], sh[1], scale), a})
		}
	}
	// Rank-deficient: a rank-3 product, a duplicated column, a zero matrix.
	low := Mul(randomMatrix(rng, 60, 3), randomMatrix(rng, 3, 20))
	dup := randomMatrix(rng, 30, 10)
	for i := 0; i < dup.Rows; i++ {
		dup.Set(i, 7, dup.At(i, 2))
	}
	// Graded: column j scaled by 10^-j.
	graded := randomMatrix(rng, 25, 12)
	for i := 0; i < graded.Rows; i++ {
		for j := 0; j < graded.Cols; j++ {
			graded.Set(i, j, graded.At(i, j)*math.Pow(10, -float64(j)))
		}
	}
	cases = append(cases, tc{"rank3", low}, tc{"dupcol", dup}, tc{"zero", New(12, 5)},
		tc{"graded", graded}, tc{"graded-wide", graded.T()})
	bitsEqual := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		got, err := SVDGolubReinsch(c.a)
		want, wantErr := svdGolubReinschReference(c.a)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: err %v, reference err %v", c.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bitsEqual(got.S, want.S) || got.U.Rows != want.U.Rows || got.U.Cols != want.U.Cols ||
			!bitsEqual(got.U.Data, want.U.Data) || got.V.Rows != want.V.Rows ||
			got.V.Cols != want.V.Cols || !bitsEqual(got.V.Data, want.V.Data) {
			t.Fatalf("%s: factors differ from the reference in some bit", c.name)
		}
	}
}
