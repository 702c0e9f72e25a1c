package rank

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
)

// adversarialMatrix mixes into random rows everything the screening
// brackets have to survive: exact duplicates and last-ulp near-copies of a
// few base rows (ties and near-ties wherever the kth score falls), zero
// rows, one huge-norm row, tiny-norm rows, and coordinates that are
// denormal in float64 or turn denormal or zero in the float32 mirror —
// whole rows of them included, whose float64 norm is itself denormal.
func adversarialMatrix(rng *rand.Rand, n, dim int) *dense.Matrix {
	docs := randomMatrix(rng, n, dim)
	bases := 1 + rng.Intn(4)
	for i := bases; i < n; i++ {
		row := docs.Row(i)
		switch rng.Intn(12) {
		case 0, 1: // exact duplicate of a base row
			copy(row, docs.Row(rng.Intn(bases)))
		case 2, 3, 4: // near-copy: one coordinate moved by an ulp
			copy(row, docs.Row(rng.Intn(bases)))
			j := rng.Intn(dim)
			row[j] = math.Nextafter(row[j], math.Inf(1-2*rng.Intn(2)))
		case 5:
			clear(row)
		case 6: // tiny norm, still normal after normalization
			for j := range row {
				row[j] *= 1e-150
			}
		case 7: // denormal and mirror-denormal coordinates
			for j := 0; j < dim; j++ {
				switch rng.Intn(4) {
				case 0:
					row[j] = 5e-324
				case 1:
					row[j] *= 1e-41
				case 2:
					row[j] *= 1e-46
				}
			}
		case 8: // denormal coordinates only: the row's norm is denormal too
			for j := range row {
				row[j] = 5e-324 * float64(rng.Intn(5)-2)
			}
		}
	}
	huge := docs.Row(rng.Intn(n))
	for j := range huge {
		huge[j] *= 1e150
	}
	return docs
}

// FuzzScanMatchesExact is the scan's defining invariant under a fuzzer:
// for fuzzer-chosen shapes over an adversarial collection, with a random
// Skip, scan returns the ids and the score bits of topKExact — int8-first
// and float32-first, flat and indexed, serial and fanned out. The seed
// corpus (f.Add below and testdata/fuzz) replays under plain `go test`.
func FuzzScanMatchesExact(f *testing.F) {
	f.Add(uint16(300), uint8(64), uint16(10), uint64(1))
	f.Add(uint16(700), uint8(100), uint16(1), uint64(2))
	f.Add(uint16(41), uint8(1), uint16(40), uint64(3))
	f.Add(uint16(2), uint8(33), uint16(0), uint64(4))
	f.Add(uint16(513), uint8(31), uint16(200), uint64(5))
	f.Add(uint16(97), uint8(129), uint16(7), uint64(6))
	f.Fuzz(func(t *testing.T, rows uint16, dim uint8, k uint16, seed uint64) {
		n, d := 2+int(rows)%800, 1+int(dim)%140
		rng := rand.New(rand.NewSource(int64(seed)))
		docs := adversarialMatrix(rng, n, d)
		var skip Skip
		if rng.Intn(3) > 0 {
			skip = NewSkip(n)
			for i, every := 0, 1+rng.Intn(6); i < n-1; i++ { // the last row stays live
				if rng.Intn(every) == 0 {
					skip.Set(i)
				}
			}
		}
		kk := 1 + int(k)%min(n-skip.CountUpTo(n), n-1)
		q := randomMatrix(rng, 1, d).Row(0)
		switch rng.Intn(4) {
		case 0: // aimed at a base row: its copies and near-copies crowd the top
			copy(q, docs.Row(0))
		case 1:
			clear(q)
		}
		qn := normalizeCopy(q)
		want := NewEngineExact(docs).topKExact(qn, kk, skip)
		for name, e := range map[string]*Engine{"int8": NewEngine(docs), "f32": newEngineF32(docs)} {
			for _, e := range []*Engine{e, e.BuildIVF(IVFConfig{MinRows: 1, Seed: seed})} {
				for _, fanOut := range []bool{false, true} {
					got, st := e.scan(qn, kk, 0, skip, fanOut)
					if !itemsBitEqual(got, want) {
						t.Fatalf("%s ivf=%v fanOut=%v n=%d dim=%d k=%d skip=%v: scan diverges from topKExact\n got %v\nwant %v\nstats %+v",
							name, e.ivf != nil, fanOut, n, d, kk, skip != nil, got, want, st)
					}
				}
			}
		}
	})
}
