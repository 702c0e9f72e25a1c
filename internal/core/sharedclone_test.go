package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// cloneFixture builds a small unfolded model plus a frozen byte-copy of
// its factors for mutation checks.
func cloneFixture(t *testing.T) (*corpus.Collection, *Model, []float64, []float64, []float64) {
	t.Helper()
	coll := corpus.MED()
	m, err := BuildCollection(coll, Config{K: 2, Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	u := append([]float64(nil), m.U.Data...)
	v := append([]float64(nil), m.V.Data...)
	s := append([]float64(nil), m.S...)
	return coll, m, u, v, s
}

func sliceEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //lsilint:ignore floatcmp — byte-identity is the property under test
			return false
		}
	}
	return true
}

// TestSharedCloneSharesFactors pins the cheapness contract: U and V are
// the same backing storage, S is an independent copy, and the
// global-weight table is shared with its capacity clipped, so growing it
// on the clone (FoldInTerms appends) reallocates and leaves the
// original's table as it was.
func TestSharedCloneSharesFactors(t *testing.T) {
	_, m, _, _, _ := cloneFixture(t)
	c := m.SharedClone()
	if c.U != m.U || c.V != m.V {
		t.Fatal("SharedClone must share the factor matrices")
	}
	if &c.S[0] == &m.S[0] {
		t.Fatal("SharedClone must copy S")
	}
	if len(c.global) != len(m.global) || cap(c.global) != len(c.global) {
		t.Fatalf("SharedClone global len %d cap %d, want len %d with no spare capacity",
			len(c.global), cap(c.global), len(m.global))
	}
	g0 := append([]float64(nil), m.global...)
	c.FoldInTerms(sparse.FromDense([][]float64{make([]float64, c.NumDocs())}))
	if len(c.global) != len(g0)+1 || !sliceEq(m.global, g0) {
		t.Fatal("growing the clone's global weight table disturbed the original's")
	}
	c = m.SharedClone()
	if c.NumDocs() != m.NumDocs() || c.NumTerms() != m.NumTerms() || c.FoldedDocs() != 0 {
		t.Fatalf("clone shape diverged: %d docs %d terms", c.NumDocs(), c.NumTerms())
	}
}

// TestSharedCloneFoldInLeavesOriginal folds documents into the clone and
// asserts the original model is byte-identical afterwards — the property
// that makes a published snapshot safe to keep serving while the updater
// mutates a clone.
func TestSharedCloneFoldInLeavesOriginal(t *testing.T) {
	coll, m, u0, v0, s0 := cloneFixture(t)
	c := m.SharedClone()
	c.FoldInDocs(coll.DocVectors(corpus.MEDUpdateTopics))
	if c.NumDocs() != m.NumDocs()+len(corpus.MEDUpdateTopics) {
		t.Fatalf("clone has %d docs", c.NumDocs())
	}
	if m.NumDocs() != len(v0)/m.K {
		t.Fatalf("original doc count moved to %d", m.NumDocs())
	}
	if !sliceEq(m.U.Data, u0) || !sliceEq(m.V.Data, v0) || !sliceEq(m.S, s0) {
		t.Fatal("fold-in on clone mutated the original factors")
	}
	// The shared prefix of the clone's V is bit-identical too (fold-in
	// never moves existing coordinates).
	if !sliceEq(c.V.Data[:len(v0)], v0) {
		t.Fatal("fold-in moved existing document coordinates")
	}
}

// TestSharedCloneUpdateDocsLeavesOriginal runs the document SVD-update
// phase — which rotates every coordinate — on a clone and asserts the
// original is untouched: the update writes freshly allocated factors and
// only sign-fixes those.
func TestSharedCloneUpdateDocsLeavesOriginal(t *testing.T) {
	coll, m, u0, v0, s0 := cloneFixture(t)
	c := m.SharedClone()
	if err := c.UpdateDocs(coll.DocVectors(corpus.MEDUpdateTopics)); err != nil {
		t.Fatal(err)
	}
	if !sliceEq(m.U.Data, u0) || !sliceEq(m.V.Data, v0) || !sliceEq(m.S, s0) {
		t.Fatal("UpdateDocs on clone mutated the original factors")
	}
	if c.FoldedDocs() != 0 {
		t.Fatalf("updated clone reports %d folded docs", c.FoldedDocs())
	}
	if got := c.DocOrthogonality(); got > 1e-8 {
		t.Fatalf("updated clone orthogonality %g", got)
	}
	// And the results of the update match the same update on a deep clone:
	// sharing changed nothing about the algebra.
	d := m.Clone()
	if err := d.UpdateDocs(coll.DocVectors(corpus.MEDUpdateTopics)); err != nil {
		t.Fatal(err)
	}
	if !sliceEq(c.V.Data, d.V.Data) || !sliceEq(c.U.Data, d.U.Data) || !sliceEq(c.S, d.S) {
		t.Fatal("SharedClone update diverged from deep-clone update")
	}
}

// TestSharedCloneRankingParity: rankings computed through a clone equal
// the original's, byte for byte.
func TestSharedCloneRankingParity(t *testing.T) {
	coll, m, _, _, _ := cloneFixture(t)
	c := m.SharedClone()
	raw := coll.QueryVector("age blood abnormalities culture")
	a := m.RankTop(raw, 5)
	b := c.RankTop(raw, 5)
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// bitsEq reports whether a and b hold the same float64 bit patterns.
func bitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// foldBatches draws count one-document raw count batches over m's
// vocabulary.
func foldBatches(rng *rand.Rand, m *Model, count int) []*sparse.CSR {
	out := make([]*sparse.CSR, count)
	for i := range out {
		out[i] = randomCounts(rng, m.NumTerms(), 1, 0.2)
	}
	return out
}

// TestFoldInChainAppendsInPlace pins the fold-in append chain: along a
// SharedClone chain the first fold-in copies V once (a built model has
// no spare capacity) and every later one that fits writes its rows into
// that allocation's tail, sharing &V.Data[0] with its parent — a copy
// happens only when the headroom runs out; no model in the chain sees
// its own rows change, and each one equals folding the same
// batches with a fresh AugmentRows per step, bit for bit.
func TestFoldInChainAppendsInPlace(t *testing.T) {
	_, m, _, v0, _ := cloneFixture(t)
	rng := rand.New(rand.NewSource(45))
	batches := foldBatches(rng, m, 6)

	var chain []*Model
	var frozen [][]float64
	cur := m
	for _, b := range batches {
		next := cur.SharedClone()
		next.FoldInDocs(b)
		chain = append(chain, next)
		frozen = append(frozen, append([]float64(nil), next.V.Data...))
		cur = next
	}
	if &chain[0].V.Data[0] == &m.V.Data[0] {
		t.Fatal("the first fold-in wrote into the built model's allocation")
	}
	shared := 0
	for i := 1; i < len(chain); i++ {
		prev, next := chain[i-1].V.Data, chain[i].V.Data
		fits := cap(prev) >= len(next)
		if fits != (&next[0] == &prev[0]) {
			t.Fatalf("fold-in %d: spare capacity %v but shared allocation %v",
				i, fits, &next[0] == &prev[0])
		}
		if fits {
			shared++
		}
	}
	if shared < len(chain)/2 {
		t.Fatalf("only %d of %d fold-ins appended in place", shared, len(chain)-1)
	}
	if !bitsEq(m.V.Data, v0) {
		t.Fatal("the chain moved the parent's rows")
	}
	ref := m.V
	for i, b := range batches {
		ref = ref.AugmentRows(foldedRows(m, b))
		if !bitsEq(chain[i].V.Data, frozen[i]) {
			t.Fatalf("model %d of the chain saw its own rows change", i)
		}
		if !bitsEq(chain[i].V.Data, ref.Data) {
			t.Fatalf("model %d differs from folding by AugmentRows", i)
		}
		if chain[i].FoldedDocs() != i+1 {
			t.Fatalf("model %d reports %d folded docs", i, chain[i].FoldedDocs())
		}
	}
}

// foldedRows returns the V rows folding batch into m produces, built on
// their own with no claim chain involved.
func foldedRows(m *Model, batch *sparse.CSR) *dense.Matrix {
	r := m.SharedClone()
	r.V = dense.New(0, m.K)
	r.FoldInDocs(batch)
	return r.V
}

// TestFoldInSiblingsDoNotAlias folds a different batch into each of
// several clones of one parent whose V has spare capacity, at once, while
// readers scan the parent's rows (run under -race): the claim token lets
// exactly one sibling append in place and sends the others down the copy
// path, every sibling equals a fresh AugmentRows of the parent's V bit for
// bit, and neither the parent's rows nor the winner's move — not even
// when a copied sibling is folded into again.
func TestFoldInSiblingsDoNotAlias(t *testing.T) {
	_, m, _, _, _ := cloneFixture(t)
	rng := rand.New(rand.NewSource(46))
	const siblings = 6
	batches := foldBatches(rng, m, siblings+1)
	parent := m.SharedClone()
	parent.FoldInDocs(batches[siblings]) // copies once, leaves headroom
	pv := append([]float64(nil), parent.V.Data...)

	kids := make([]*Model, siblings)
	var wg sync.WaitGroup
	for i := range kids {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			c := parent.SharedClone()
			c.FoldInDocs(batches[i])
			kids[i] = c
		}(i)
		go func() {
			defer wg.Done()
			if !bitsEq(parent.V.Data, pv) {
				t.Error("a sibling's fold-in moved the parent's rows")
			}
		}()
	}
	wg.Wait()
	winner, loser := -1, -1
	for i, c := range kids {
		if &c.V.Data[0] != &parent.V.Data[0] {
			loser = i
		} else if winner >= 0 {
			t.Fatalf("siblings %d and %d both appended in place", winner, i)
		} else {
			winner = i
		}
		if !bitsEq(c.V.Data, parent.V.AugmentRows(foldedRows(m, batches[i])).Data) {
			t.Fatalf("sibling %d differs from a fresh AugmentRows", i)
		}
	}
	if winner < 0 {
		t.Fatal("no sibling claimed the parent's spare capacity")
	}
	want := append([]float64(nil), kids[winner].V.Data...)
	kids[loser].SharedClone().FoldInDocs(batches[winner])
	if !bitsEq(kids[winner].V.Data, want) || !bitsEq(parent.V.Data, pv) {
		t.Fatal("folding into a copied sibling disturbed the winner or the parent")
	}
}

// TestFoldInReplacedVCopies: a token is honoured only while V is the
// matrix it was issued with. Replacing V (as the SVD-updating phases do)
// must send the next fold-in down the copy path even when the new matrix
// happens to have spare capacity.
func TestFoldInReplacedVCopies(t *testing.T) {
	_, m, _, _, _ := cloneFixture(t)
	rng := rand.New(rand.NewSource(47))
	batches := foldBatches(rng, m, 2)
	c := m.SharedClone()
	c.FoldInDocs(batches[0])
	spare := make([]float64, len(c.V.Data), cap(c.V.Data))
	copy(spare, c.V.Data)
	c.V = &dense.Matrix{Rows: c.V.Rows, Cols: c.V.Cols, Data: spare}
	c.FoldInDocs(batches[1])
	if &c.V.Data[0] == &spare[0] {
		t.Fatal("fold-in claimed spare capacity of a V it holds no token for")
	}
}
