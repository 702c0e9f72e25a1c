// Package index bundles an LSI model with the vocabulary and document
// metadata it was built from, and persists the bundle to a single file —
// the on-disk form of "an LSI-generated database" (§2.3). The paper's TREC
// SVD took 18 CPU-hours; a database you cannot store and reload is not a
// database.
//
// File layout: one snapfile container (CRC'd header, section table and
// payloads) holding the model's five sections as core.SnapshotSections
// writes them, plus a JSON "index" section with the document IDs and
// texts, the folded-in extras and the parse options.
package index

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snapfile"
	"repro/internal/text"
)

// Index is a queryable LSI database: the factor model plus everything
// needed to turn raw text into vectors over the same vocabulary.
type Index struct {
	Model *core.Model
	Coll  *corpus.Collection
	// Extra holds documents folded in after the build (via AddFolded).
	// Their vectors live in Model.V after row Coll.Size()-1; their text is
	// kept here so persistence round-trips them.
	Extra []corpus.Document
}

// AddFolded folds a document into the model (Eq 7) and records it so the
// index can be saved and reloaded with the addition intact.
func (ix *Index) AddFolded(d corpus.Document) {
	ix.Model.FoldInDocs(ix.Coll.DocVectors([]corpus.Document{d}))
	ix.Extra = append(ix.Extra, d)
}

// Doc returns document j's metadata across the built and folded-in sets.
func (ix *Index) Doc(j int) corpus.Document {
	if j < ix.Coll.Size() {
		return ix.Coll.Docs[j]
	}
	return ix.Extra[j-ix.Coll.Size()]
}

// NumDocs returns the total document count (built + folded).
func (ix *Index) NumDocs() int { return ix.Coll.Size() + len(ix.Extra) }

// Build constructs an index from documents.
func Build(docs []corpus.Document, parse text.ParseOptions, cfg core.Config) (*Index, error) {
	coll := corpus.New(docs, parse)
	if coll.Terms() == 0 {
		return nil, fmt.Errorf("index: no indexable terms in %d documents", len(docs))
	}
	m, err := core.BuildCollection(coll, cfg)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return &Index{Model: m, Coll: coll}, nil
}

// header is the JSON "index" section.
type header struct {
	Version    int               `json:"version"`
	DocIDs     []string          `json:"doc_ids"`
	DocTexts   []string          `json:"doc_texts"`
	ExtraIDs   []string          `json:"extra_ids,omitempty"`
	ExtraTexts []string          `json:"extra_texts,omitempty"`
	MinDocs    int               `json:"min_docs"`
	MinLength  int               `json:"min_length"`
	Bigrams    bool              `json:"bigrams"`
	Aliases    map[string]string `json:"aliases,omitempty"`
}

const (
	headerVersion = 1
	headerSection = "index"
)

// WriteTo serializes the index.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	h := header{Version: headerVersion}
	for _, d := range ix.Coll.Docs {
		h.DocIDs = append(h.DocIDs, d.ID)
		h.DocTexts = append(h.DocTexts, d.Text)
	}
	for _, d := range ix.Extra {
		h.ExtraIDs = append(h.ExtraIDs, d.ID)
		h.ExtraTexts = append(h.ExtraTexts, d.Text)
	}
	opts := ix.Coll.ParseOptions()
	h.MinDocs = opts.MinDocs
	h.MinLength = opts.MinLength
	h.Bigrams = opts.IncludeBigrams
	h.Aliases = opts.Aliases
	hb, err := json.Marshal(h)
	if err != nil {
		return 0, err
	}
	model, err := ix.Model.SnapshotSections("")
	if err != nil {
		return 0, err
	}
	blob, err := snapfile.Encode(append([]snapfile.Section{{Name: headerSection, Data: hb}}, model...))
	if err != nil {
		return 0, err
	}
	n, err := w.Write(blob)
	return int64(n), err
}

// Read deserializes an index written by WriteTo. The whole container is
// read into memory and every checksum verified, so the returned index
// owns its storage (no mapping to keep open). The collection (and its
// term–document matrix) is rebuilt from the stored documents and parse
// options; the factor model is loaded verbatim, so a model that was
// SVD-updated or folded after building is restored exactly as saved.
func Read(r io.Reader) (*Index, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	f, err := snapfile.OpenBytes(blob)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if err := f.VerifyAll(); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	hb, ok := f.Section(headerSection)
	if !ok {
		return nil, fmt.Errorf("index: container has no %q section", headerSection)
	}
	var h header
	if err := json.Unmarshal(hb, &h); err != nil {
		return nil, fmt.Errorf("index: decoding header: %w", err)
	}
	if h.Version != headerVersion {
		return nil, fmt.Errorf("index: unsupported version %d", h.Version)
	}
	if len(h.DocIDs) != len(h.DocTexts) || len(h.ExtraIDs) != len(h.ExtraTexts) {
		return nil, fmt.Errorf("index: corrupt header: %d/%d ids vs %d/%d texts",
			len(h.DocIDs), len(h.ExtraIDs), len(h.DocTexts), len(h.ExtraTexts))
	}
	docs := make([]corpus.Document, len(h.DocIDs))
	for i := range docs {
		docs[i] = corpus.Document{ID: h.DocIDs[i], Text: h.DocTexts[i]}
	}
	coll := corpus.New(docs, text.ParseOptions{
		MinDocs:        h.MinDocs,
		MinLength:      h.MinLength,
		IncludeBigrams: h.Bigrams,
		Aliases:        h.Aliases,
	})
	m, err := core.ModelFromSnapshot(f, "")
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if m.NumTerms() < coll.Terms() {
		return nil, fmt.Errorf("index: model has %d terms, vocabulary %d", m.NumTerms(), coll.Terms())
	}
	extra := make([]corpus.Document, len(h.ExtraIDs))
	for i := range extra {
		extra[i] = corpus.Document{ID: h.ExtraIDs[i], Text: h.ExtraTexts[i]}
	}
	if m.NumDocs() != coll.Size()+len(extra) {
		return nil, fmt.Errorf("index: model has %d docs, metadata %d+%d",
			m.NumDocs(), coll.Size(), len(extra))
	}
	return &Index{Model: m, Coll: coll, Extra: extra}, nil
}

// Save writes the index to a file.
func (ix *Index) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads an index from a file.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
