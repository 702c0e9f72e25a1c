package core

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sparse"
	"repro/internal/text"
	"repro/internal/weight"
)

// BenchmarkFoldIn times what the serving updater pays to publish one
// document: a SharedClone of the current model and a one-document
// FoldInDocs into it, each fold extending the previous one's clone — the
// chain a stream of single submits builds. Table 7 prices the fold at
// 2mk flops with no n in it; run with -benchmem, B/op and ns/op should
// read the same at both collection sizes. The 3 000-doc model is a
// document subset of the 12 000-doc one (same vocabulary and basis), so
// only n differs. A chain restarts, untimed, every n/8 folds, so every
// timed fold lands on n to 9n/8 rows; the one copy of V each chain makes
// into an allocation with headroom happens in that untimed restart.
func BenchmarkFoldIn(b *testing.B) {
	const docs, k = 12000, 64
	synth := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 1, Topics: 64, ConceptsPerTopic: 24, Docs: docs + 64,
		DocLen: 60, NoiseWords: 200, NoiseZipf: true,
	})
	coll := corpus.New(synth.Docs[:docs], text.ParseOptions{MinDocs: 2})
	full, err := BuildCollection(coll, Config{K: k, Scheme: weight.LogEntropy})
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]*sparse.CSR, 64)
	for i := range batches {
		batches[i] = coll.DocVectors(synth.Docs[docs+i : docs+i+1])
	}
	for _, n := range []int{3000, docs} {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		base := full.DocSubsetView(idx)
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			restart := func() *Model {
				m := base.SharedClone()
				m.FoldInDocs(batches[0])
				return m
			}
			cur := restart()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%(n/8) == 0 {
					b.StopTimer()
					cur = restart()
					b.StartTimer()
				}
				next := cur.SharedClone()
				next.FoldInDocs(batches[i%len(batches)])
				cur = next
			}
		})
	}
}
