// Package lsi is the public API of this library: Latent Semantic Indexing
// as described in Berry, Dumais & Letsche, "Computational Methods for
// Intelligent Information Access" (Supercomputing '95).
//
// Typical use:
//
//	idx, err := lsi.Index(docs, lsi.Options{K: 100})
//	hits := idx.Search("sparse singular value decomposition", 10)
//	idx.Add(lsi.Document{ID: "new", Text: "..."})     // folding-in
//	related, _ := idx.RelatedTerms("matrix", 5)       // online thesaurus
//	err = idx.Save("corpus.lsi")                      // persist the database
//
// The facade wraps internal/core (the factor model) and internal/corpus
// (parsing and the term–document matrix); applications needing the full
// surface — SVD-updating phases, filtering profiles, cross-language
// spaces, the evaluation harness — use those packages directly.
//
// A saved database is the serving tier's model snapshot (internal/shard)
// with one shard: lsiserver -load-model serves what Save writes, and
// Load reads what lsiserver -save-model writes, at any shard count.
package lsi

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/shard"
	"repro/internal/snapfile"
	"repro/internal/text"
	"repro/internal/weight"
)

// Document is one text object to index.
type Document struct {
	ID   string
	Text string
}

// Options configures Index.
type Options struct {
	// K is the number of latent factors (default 100, clamped to the
	// collection size; the paper uses 100–300 for real collections).
	K int
	// RawWeighting disables the log×entropy term weighting (the scheme the
	// paper's §5.1 found most effective) in favor of raw counts.
	RawWeighting bool
	// MinDocs is the parsing rule: index a word only if it appears in at
	// least this many documents (default 2, the paper's rule).
	MinDocs int
	// Bigrams additionally indexes adjacent word pairs as phrase
	// descriptors (§5.4).
	Bigrams bool
	// Seed drives the iterative SVD solver (deterministic default).
	Seed int64
}

// Hit is one search result.
type Hit struct {
	ID     string
	Text   string
	Cosine float64
}

// Idx is a queryable LSI database: the factor model and a collection
// holding the vocabulary, the parse options and one document per row
// of V, folded-in additions included.
type Idx struct {
	coll  *corpus.Collection
	model *core.Model
}

// Index builds an LSI database over the documents.
func Index(docs []Document, opts Options) (*Idx, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("lsi: no documents")
	}
	k := opts.K
	if k <= 0 {
		k = 100
	}
	scheme := weight.LogEntropy
	if opts.RawWeighting {
		scheme = weight.Raw
	}
	minDocs := opts.MinDocs
	if minDocs <= 0 {
		minDocs = 2
	}
	cdocs := make([]corpus.Document, len(docs))
	for i, d := range docs {
		cdocs[i] = corpus.Document{ID: d.ID, Text: d.Text}
	}
	// The stopword set is given explicitly, so a saved database records
	// the list it was parsed with, not "the default".
	coll := corpus.New(cdocs, text.ParseOptions{MinDocs: minDocs, IncludeBigrams: opts.Bigrams, Stopwords: text.Stopwords()})
	if coll.Terms() == 0 {
		return nil, fmt.Errorf("lsi: no indexable terms in %d documents", len(docs))
	}
	model, err := core.BuildCollection(coll, core.Config{K: k, Scheme: scheme, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("lsi: %w", err)
	}
	coll.TD = nil // the SVD's input only: queries and fold-ins need the vocabulary
	return &Idx{coll: coll, model: model}, nil
}

// Search returns the n documents most similar to the free-text query,
// best first. Queries whose words are all unindexed return nil.
func (x *Idx) Search(query string, n int) []Hit {
	counts := x.coll.QueryCounts(query)
	if len(counts.Idx) == 0 {
		return nil
	}
	m := x.model
	ranked := m.RankVectorTop(m.ProjectSparse(counts, nil), n)
	out := make([]Hit, len(ranked))
	for i, r := range ranked {
		out[i] = Hit{ID: x.coll.Docs[r.Doc].ID, Text: x.coll.Docs[r.Doc].Text, Cosine: r.Score}
	}
	return out
}

// SearchBatch answers several free-text queries in one pass: the block is
// scored against the document matrix as a single cache-blocked gemm, so
// throughput-oriented callers (offline evaluation, request coalescing)
// pay far less per query than repeated Search calls. Result i corresponds
// to query i; queries with no indexed words get an empty slice.
func (x *Idx) SearchBatch(queries []string, n int) [][]Hit {
	out := make([][]Hit, len(queries))
	m := x.model
	qhats := make([][]float64, 0, len(queries))
	slots := make([]int, 0, len(queries))
	for i, q := range queries {
		counts := x.coll.QueryCounts(q)
		if len(counts.Idx) == 0 {
			out[i] = []Hit{}
			continue
		}
		qhats = append(qhats, m.ProjectSparse(counts, nil))
		slots = append(slots, i)
	}
	for bi, ranked := range m.RankVectorBatch(qhats, n) {
		hits := make([]Hit, len(ranked))
		for j, r := range ranked {
			hits[j] = Hit{ID: x.coll.Docs[r.Doc].ID, Text: x.coll.Docs[r.Doc].Text, Cosine: r.Score}
		}
		out[slots[bi]] = hits
	}
	return out
}

// SearchSimilar returns the n documents most similar to an existing
// document (query-by-example: "queries can be … documents", §5.4). The
// reference document itself is excluded.
func (x *Idx) SearchSimilar(id string, n int) ([]Hit, error) {
	ref := -1
	for j, d := range x.coll.Docs {
		if d.ID == id {
			ref = j
			break
		}
	}
	if ref < 0 {
		return nil, fmt.Errorf("lsi: no document %q", id)
	}
	// n+1 covers the reference document occupying one of the top slots.
	ranked := x.model.RankVectorTop(x.model.DocVector(ref), n+1)
	out := make([]Hit, 0, n)
	for _, r := range ranked {
		if r.Doc == ref {
			continue
		}
		out = append(out, Hit{ID: x.coll.Docs[r.Doc].ID, Text: x.coll.Docs[r.Doc].Text, Cosine: r.Score})
		if len(out) == n {
			break
		}
	}
	return out, nil
}

// Add folds a new document into the database (Eq 7). Cheap, but repeated
// additions degrade the factors; Staleness reports how far gone they are.
func (x *Idx) Add(d Document) {
	cd := corpus.Document{ID: d.ID, Text: d.Text}
	x.model.FoldInDocs(x.coll.DocVectors([]corpus.Document{cd}))
	x.coll.Docs = append(x.coll.Docs, cd)
}

// Staleness returns ‖V̂ᵀV̂−I‖_F, the §4.3 measure of distortion introduced
// by Add since the last full build. Zero means pristine; operators should
// rebuild (or SVD-update via internal/core) when it grows large relative
// to 1.
func (x *Idx) Staleness() float64 {
	return x.model.DocOrthogonality()
}

// RelatedTerms returns the n indexed terms nearest to the given term in
// the latent space — the automatically constructed thesaurus of §5.4.
func (x *Idx) RelatedTerms(term string, n int) ([]string, error) {
	i, ok := x.coll.Vocab.Index[term]
	if !ok {
		return nil, fmt.Errorf("lsi: %q is not an indexed term", term)
	}
	type scored struct {
		term string
		s    float64
	}
	best := make([]scored, 0, n+1)
	for j, w := range x.coll.Vocab.Terms {
		if j == i {
			continue
		}
		s := x.model.TermSimilarity(i, j)
		// Insertion into the running top-n.
		pos := len(best)
		for pos > 0 && best[pos-1].s < s {
			pos--
		}
		if pos < n {
			best = append(best, scored{})
			copy(best[pos+1:], best[pos:])
			best[pos] = scored{w, s}
			if len(best) > n {
				best = best[:n]
			}
		}
	}
	out := make([]string, len(best))
	for i, b := range best {
		out[i] = b.term
	}
	return out, nil
}

// Terms returns the number of indexed terms; Docs the number of documents
// (including added ones); Factors the rank k of the model.
func (x *Idx) Terms() int   { return x.coll.Terms() }
func (x *Idx) Docs() int    { return x.coll.Size() }
func (x *Idx) Factors() int { return x.model.K }

// Save persists the database to a file, replacing it atomically (the
// old file survives a failed save); Load restores it.
func (x *Idx) Save(path string) error {
	sections, err := shard.DatabaseSections(x.coll, x.model)
	if err != nil {
		return err
	}
	return snapfile.Write(path, sections)
}

// WriteTo serializes the database to a writer.
func (x *Idx) WriteTo(w io.Writer) (int64, error) {
	sections, err := shard.DatabaseSections(x.coll, x.model)
	if err != nil {
		return 0, err
	}
	blob, err := snapfile.Encode(sections)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(blob)
	return int64(n), err
}

// Load restores a database saved by Save, or a model snapshot that
// lsiserver -save-model wrote at any shard count.
func Load(path string) (*Idx, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return open(blob)
}

// Read restores a database from a reader.
func Read(r io.Reader) (*Idx, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("lsi: %w", err)
	}
	return open(blob)
}

// open reads a whole container image: every checksum is verified, and
// the database keeps the image as its storage, so nothing needs closing.
func open(blob []byte) (*Idx, error) {
	f, err := snapfile.OpenBytes(blob)
	if err != nil {
		return nil, fmt.Errorf("lsi: %w", err)
	}
	if err := f.VerifyAll(); err != nil {
		return nil, fmt.Errorf("lsi: %w", err)
	}
	coll, model, err := shard.ReadDatabase(f)
	if err != nil {
		return nil, fmt.Errorf("lsi: %w", err)
	}
	return &Idx{coll: coll, model: model}, nil
}
