// Package corpus supplies the document collections the experiments run on:
// the paper's §3 MEDLINE example verbatim, and synthetic generators that
// stand in for the proprietary test collections (MED, encyclopedia, TREC,
// TOEFL, bilingual Hansards, OCR data) with the same statistical structure —
// latent topics expressed through variable word choice, which is exactly
// the phenomenon ("synonymy … polysemy", §1) LSI exists to model.
package corpus

import (
	"fmt"

	"repro/internal/sparse"
	"repro/internal/text"
)

// Document is one text object with a stable identifier.
type Document struct {
	ID   string
	Text string
}

// Collection couples documents with their vocabulary and the raw
// term–document count matrix A of Eq (4): element (i,j) is the frequency of
// term i in document j.
type Collection struct {
	Docs  []Document
	Vocab *text.Vocabulary
	// TD is the m×n raw count matrix (m = Vocab.Size(), n = len(Docs)) —
	// the input of the SVD. New and Subset populate it; a collection from
	// Restore serves an already-factored model and carries nil.
	TD   *sparse.CSR
	opts text.ParseOptions
}

// New builds a Collection from documents under the given parsing options.
// Each document is tokenized once: the vocabulary pass and the count pass
// share the token lists.
func New(docs []Document, opts text.ParseOptions) *Collection {
	toks := make([][]string, len(docs))
	for j, d := range docs {
		toks[j] = text.Tokenize(d.Text)
	}
	vocab := text.BuildVocabularyTokens(toks, opts)
	td := countMatrix(vocab, len(docs), func(j int) []string { return toks[j] })
	return &Collection{Docs: docs, Vocab: vocab, TD: td, opts: opts}
}

// countMatrix returns the m×n raw count matrix of n token streams under
// vocab: the document-major matrix is appended one sorted count vector at
// a time and transposed (a counting sort, O(nnz)).
func countMatrix(vocab *text.Vocabulary, n int, tokens func(j int) []string) *sparse.CSR {
	dm := &sparse.CSR{Rows: n, Cols: vocab.Size(), RowPtr: make([]int, n+1)}
	var c sparse.Vec
	for j := 0; j < n; j++ {
		vocab.CountInto(&c, tokens(j))
		dm.ColIdx = append(dm.ColIdx, c.Idx...)
		dm.Val = append(dm.Val, c.Val...)
		dm.RowPtr[j+1] = len(dm.ColIdx)
	}
	return dm.T()
}

// ParseOptions returns the options the collection was parsed with (useful
// for persisting and for extending with the same rules).
func (c *Collection) ParseOptions() text.ParseOptions { return c.opts }

// Restore returns a Collection over documents whose vocabulary is already
// fixed — the constructor for serving a factored model (snapshot restore,
// shard views). Where New derives the vocabulary from the documents and
// counts them into TD, Restore parses nothing: queries and folded
// documents need only the vocabulary, so TD stays nil and the cost is
// O(1).
func Restore(docs []Document, vocab *text.Vocabulary, opts text.ParseOptions) *Collection {
	return &Collection{Docs: docs, Vocab: vocab, opts: opts}
}

// Terms returns the number of indexing terms (m).
func (c *Collection) Terms() int { return c.Vocab.Size() }

// Size returns the number of documents (n).
func (c *Collection) Size() int { return len(c.Docs) }

// QueryCounts returns the raw term counts of a query string under the
// collection's vocabulary; non-indexed words are dropped, as the paper
// drops "of", "children", "with" from the §3.1 example query. An empty
// result means no query word is indexed.
func (c *Collection) QueryCounts(q string) sparse.Vec {
	var v sparse.Vec
	c.Vocab.CountInto(&v, text.Tokenize(q))
	return v
}

// QueryVector is QueryCounts as a dense length-m term-frequency vector.
func (c *Collection) QueryVector(q string) []float64 {
	return c.QueryCounts(q).Scatter(c.Terms())
}

// DocVectors builds the raw count matrix for additional documents under
// the existing vocabulary — the D (m×p) matrix of Eq (10) used by both
// folding-in and SVD-updating.
func (c *Collection) DocVectors(docs []Document) *sparse.CSR {
	return countMatrix(c.Vocab, len(docs), func(j int) []string { return text.Tokenize(docs[j].Text) })
}

// Subset returns a Collection over the documents idx (kept in the given
// order) sharing the receiver's vocabulary and parsing options, with its
// own count matrix: the vocabulary stays global so the subset parses,
// weights and projects identically to its parent. TD columns are
// re-extracted from the parent matrix in one O(nnz) pass. (Shards of a
// factored model need no counts and use Restore instead.)
func (c *Collection) Subset(idx []int) *Collection {
	docs := make([]Document, len(idx))
	pos := make([]int, c.Size())
	for j := range pos {
		pos[j] = -1
	}
	for r, j := range idx {
		docs[r] = c.Docs[j]
		pos[j] = r
	}
	b := sparse.NewBuilder(c.Terms(), len(idx))
	for i := 0; i < c.TD.Rows; i++ {
		c.TD.Row(i, func(j int, v float64) {
			if r := pos[j]; r >= 0 {
				b.Add(i, r, v)
			}
		})
	}
	return &Collection{Docs: docs, Vocab: c.Vocab, TD: b.Build(), opts: c.opts}
}

// Extend returns a new Collection over the union of documents with a
// vocabulary rebuilt under the same parsing options — the "recomputing the
// SVD" path of §3.4, which lets new terms join the index.
func (c *Collection) Extend(docs []Document, opts text.ParseOptions) *Collection {
	all := make([]Document, 0, len(c.Docs)+len(docs))
	all = append(all, c.Docs...)
	all = append(all, docs...)
	return New(all, opts)
}

// Query pairs a query string with the indices of its relevant documents —
// the "test collection" structure of §5.1 (documents, queries, relevance
// judgements).
type Query struct {
	ID       string
	Text     string
	Relevant []int // document indices within the owning Collection
}

// Judged is a Collection plus relevance-judged queries.
type Judged struct {
	*Collection
	Queries []Query
}

func (q Query) String() string {
	return fmt.Sprintf("%s(%q, %d relevant)", q.ID, q.Text, len(q.Relevant))
}
