package corpus

import (
	"slices"
	"testing"

	"repro/internal/sparse"
	"repro/internal/text"
)

// builderCounts is the count matrix the way it was built before counts
// were sparse: one Builder entry per token occurrence, duplicates summed.
func builderCounts(vocab *text.Vocabulary, docs []Document) *sparse.CSR {
	b := sparse.NewBuilder(vocab.Size(), len(docs))
	for j, d := range docs {
		for i, f := range vocab.Count(d.Text) {
			b.Add(i, j, f)
		}
	}
	return b.Build()
}

func TestCountMatricesMatchBuilderReference(t *testing.T) {
	s := GenerateSynth(SynthOptions{Seed: 5, Topics: 4, Docs: 60, DocLen: 30, NoiseZipf: true, NoiseBurst: 3})
	for _, opts := range []text.ParseOptions{{MinDocs: 2}, {MinDocs: 1, IncludeBigrams: true}} {
		c := New(s.Docs[:40], opts)
		if want := builderCounts(c.Vocab, c.Docs); !c.TD.Equal(want, 0) || c.TD.NNZ() != want.NNZ() {
			t.Fatalf("%+v: New().TD differs from the Builder reference (%d vs %d nonzeros)", opts, c.TD.NNZ(), want.NNZ())
		}
		// Unseen documents, one of them with no indexed word and one empty.
		extra := append([]Document{{ID: "oov", Text: "zzzz qqqq"}, {ID: "empty"}}, s.Docs[40:]...)
		d := c.DocVectors(extra)
		if d.Rows != c.Terms() || d.Cols != len(extra) {
			t.Fatalf("DocVectors shape %dx%d, want %dx%d", d.Rows, d.Cols, c.Terms(), len(extra))
		}
		if want := builderCounts(c.Vocab, extra); !d.Equal(want, 0) || d.NNZ() != want.NNZ() {
			t.Fatalf("%+v: DocVectors differs from the Builder reference", opts)
		}
		if d := c.DocVectors(nil); d.Rows != c.Terms() || d.Cols != 0 || d.NNZ() != 0 {
			t.Fatalf("DocVectors(nil) = %dx%d with %d nonzeros", d.Rows, d.Cols, d.NNZ())
		}
	}
}

// TestRestoreCarriesNoCountMatrix: a restored collection parses queries
// and new documents exactly like the original but holds no TD.
func TestRestoreCarriesNoCountMatrix(t *testing.T) {
	s := GenerateSynth(SynthOptions{Seed: 6, Topics: 3, Docs: 30})
	opts := text.ParseOptions{MinDocs: 2}
	c := New(s.Docs, opts)
	r := Restore(c.Docs, c.Vocab, opts)
	if r.TD != nil {
		t.Fatal("Restore built a term-document matrix")
	}
	if r.Size() != c.Size() || r.Terms() != c.Terms() || r.ParseOptions().MinDocs != 2 {
		t.Fatalf("restored shape %d docs × %d terms", r.Size(), r.Terms())
	}
	q := s.Queries[0].Text
	got, want := r.QueryCounts(q), c.QueryCounts(q)
	if len(want.Idx) == 0 || !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
		t.Fatalf("restored QueryCounts = %v, want %v", got, want)
	}
	if !r.DocVectors(s.Docs[:5]).Equal(c.DocVectors(s.Docs[:5]), 0) {
		t.Fatal("restored collection counts documents differently")
	}
	dense := r.QueryVector(q)
	if len(dense) != r.Terms() {
		t.Fatalf("QueryVector length %d, want %d", len(dense), r.Terms())
	}
	for p, i := range want.Idx {
		if dense[i] != want.Val[p] {
			t.Fatalf("QueryVector[%d] = %v, want %v", i, dense[i], want.Val[p])
		}
	}
}
