package lsi

import (
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

// BenchmarkLoad measures Load of a 12 000-document database at k = 64
// (corpus.GenerateSynth at the shape of bench/'s topical-search tier):
// reading the file, the CRC pass over every section, and decoding the
// vocabulary, the documents and the model. Run with -benchmem: B/op is
// what a load copies onto the heap.
func BenchmarkLoad(b *testing.B) {
	synth := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 1, Topics: 64, ConceptsPerTopic: 24, Docs: 12000, DocLen: 60,
		NoiseWords: 200, NoiseZipf: true, QueriesPerTopic: 4,
	})
	docs := make([]Document, synth.Collection.Size())
	for i, d := range synth.Collection.Docs {
		docs[i] = Document{ID: d.ID, Text: d.Text}
	}
	x, err := Index(docs, Options{K: 64})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "db.lsnp")
	if err := x.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
