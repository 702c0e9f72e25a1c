package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/text"
	"repro/internal/weight"
)

// denseProjectRef is Eq 6 the way it was computed before the sparse path:
// weight all m entries, multiply by all of U, divide by Σ.
func denseProjectRef(m *Model, raw []float64) []float64 {
	w := make([]float64, len(raw))
	for i, f := range raw {
		g := 1.0
		if i < len(m.global) {
			g = m.global[i]
		}
		w[i] = m.Scheme.Local.Apply(f) * g
	}
	out := dense.MulVecT(m.U, w)
	for c := range out {
		out[c] /= m.S[c]
	}
	return out
}

func bitsEqual(a, b []float64) bool {
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

// sparseTestCollection is eight documents (so a word that occurs once in
// each has entropy weight exactly 1 + 8·(⅛·−3)/3 = 0) over two topics,
// parsed with bigrams.
func sparseTestCollection() *corpus.Collection {
	topics := [][]string{
		{"latent", "semantic", "indexing", "singular", "value", "matrix"},
		{"river", "bank", "water", "flood", "stream", "delta"},
	}
	docs := make([]corpus.Document, 8)
	for j := range docs {
		words := []string{"everywhere"}
		tp := topics[j%2]
		for w := 0; w < 7; w++ {
			words = append(words, tp[(j+w*w)%len(tp)])
		}
		if j%3 == 0 {
			words = append(words, topics[(j+1)%2][j%5])
		}
		docs[j] = corpus.Document{ID: fmt.Sprintf("d%d", j), Text: strings.Join(words, " ")}
	}
	return corpus.New(docs, text.ParseOptions{MinDocs: 2, IncludeBigrams: true})
}

// TestProjectSparseMatchesDenseBitwise: the row gather and the dense
// product perform the same float operations in the same order, for every
// weighting scheme, on queries with repeated words, bigrams, a
// zero-weight term, unindexed words, and nothing at all.
func TestProjectSparseMatchesDenseBitwise(t *testing.T) {
	coll := sparseTestCollection()
	queries := []string{
		"latent semantic indexing",
		"river river bank river water water",
		"everywhere",
		"everywhere latent everywhere flood",
		"singular value zebra unicorn matrix",
		"zebra unicorn",
		"",
		"latent semantic river bank stream delta singular value matrix indexing flood water",
	}
	sawBigram, sawRepeat := false, false
	for _, scheme := range weight.AllSchemes() {
		m, err := Build(coll.TD, Config{K: 4, Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if scheme.Global == weight.GlobalEntropy {
			if g := m.global[coll.Vocab.Index["everywhere"]]; g != 0 {
				t.Fatalf("%v: weight of the evenly spread term is %v, want exactly 0", scheme, g)
			}
		}
		dst := make([]float64, m.K)
		for _, q := range queries {
			counts := coll.QueryCounts(q)
			raw := coll.QueryVector(q)
			for p, i := range counts.Idx {
				sawBigram = sawBigram || strings.Contains(coll.Vocab.Terms[i], " ")
				sawRepeat = sawRepeat || counts.Val[p] > 1
			}
			want := denseProjectRef(m, raw)
			if got := m.ProjectSparse(counts, nil); !bitsEqual(got, want) {
				t.Fatalf("%v %q: ProjectSparse = %v, dense reference %v", scheme, q, got, want)
			}
			// A reused destination holding the previous answer gives the same.
			if got := m.ProjectSparse(counts, dst); !bitsEqual(got, want) || &got[0] != &dst[0] {
				t.Fatalf("%v %q: ProjectSparse into dst = %v, dense reference %v", scheme, q, got, want)
			}
			if got := m.ProjectQuery(raw); !bitsEqual(got, want) {
				t.Fatalf("%v %q: ProjectQuery = %v, dense reference %v", scheme, q, got, want)
			}
		}
	}
	if !sawBigram || !sawRepeat {
		t.Fatalf("queries exercised bigram=%v repeat=%v, want both", sawBigram, sawRepeat)
	}
}

// TestProjectSparseRejectsOutOfRangeTerm keeps the dimension check the
// dense form had.
func TestProjectSparseRejectsOutOfRangeTerm(t *testing.T) {
	coll := sparseTestCollection()
	m, err := Build(coll.TD, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("term index == NumTerms did not panic")
		}
	}()
	m.ProjectSparse(sparse.Vec{Idx: []int{0, m.NumTerms()}, Val: []float64{1, 1}}, nil)
}

// TestFoldInDocsMatchesPerColumnProjection: folding a block through one
// transpose appends exactly the rows that projecting each column densely
// would, including an all-unindexed document (a zero column).
func TestFoldInDocsMatchesPerColumnProjection(t *testing.T) {
	coll := sparseTestCollection()
	add := []corpus.Document{
		{ID: "n0", Text: "latent river latent everywhere semantic indexing"},
		{ID: "n1", Text: "zebra unicorn"},
		{ID: "n2", Text: "flood water water stream delta bank everywhere everywhere"},
	}
	d := coll.DocVectors(add)
	for _, scheme := range []weight.Scheme{weight.Raw, weight.LogEntropy, {Local: weight.LocalBinary, Global: weight.GlobalIDF}} {
		m, err := Build(coll.TD, Config{K: 4, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		n0 := m.NumDocs()
		before := m.V.Clone()
		m.FoldInDocs(d)
		if m.NumDocs() != n0+len(add) {
			t.Fatalf("%v: %d docs after fold-in, want %d", scheme, m.NumDocs(), n0+len(add))
		}
		for j := 0; j < n0; j++ {
			if !bitsEqual(m.V.Row(j), before.Row(j)) {
				t.Fatalf("%v: fold-in moved existing row %d", scheme, j)
			}
		}
		for j := range add {
			if want := denseProjectRef(m, d.Col(j)); !bitsEqual(m.V.Row(n0+j), want) {
				t.Fatalf("%v: folded row %d = %v, per-column reference %v", scheme, j, m.V.Row(n0+j), want)
			}
		}
	}
}
