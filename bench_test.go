// Benchmarks regenerating the cost-relevant tables and figures of the
// paper. Naming convention: BenchmarkTableN / BenchmarkFigN measure the
// computation behind that exhibit; cmd/lsibench prints the corresponding
// data and times nothing. Serving-path performance is not measured here:
// bench/ does that end to end, and the per-layer tables sit beside their
// code (make bench-tables).
package repro_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/flops"
	"repro/internal/lanczos"
	"repro/internal/text"
	"repro/internal/vsm"
	"repro/internal/weight"
)

// medCollection caches the §3 example.
var medCollection = corpus.MED()

// synth builds the standard synthetic workload once per size.
func synth(docs int) *corpus.Synth {
	return corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 99, Topics: 10, Docs: docs, DocLen: 40,
		SynonymsPerConcept: 4, DocVariantLoyalty: 1.0, NoiseFrac: 0.35,
	})
}

// BenchmarkTable3Parse measures building the term–document matrix from the
// raw Table 2 topics (parser + vocabulary + CSR assembly).
func BenchmarkTable3Parse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c := corpus.MED(); c.Terms() != 18 {
			b.Fatal("bad parse")
		}
	}
}

// BenchmarkFig4Factorization measures the k=2 SVD of the 18×14 example.
func BenchmarkFig4Factorization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCollection(medCollection, core.Config{K: 2, Method: core.MethodDense}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Query measures query projection (Eq 6) plus cosine ranking.
func BenchmarkFig5Query(b *testing.B) {
	m, err := core.BuildCollection(medCollection, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		b.Fatal(err)
	}
	q := medCollection.QueryVector(corpus.MEDQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := m.Rank(q); len(r) != 14 {
			b.Fatal("bad rank")
		}
	}
}

// BenchmarkTable4KSweep measures the k ∈ {2,4,8} factor sweep of Table 4.
func BenchmarkTable4KSweep(b *testing.B) {
	q := medCollection.QueryVector(corpus.MEDQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 4, 8} {
			m, err := core.BuildCollection(medCollection, core.Config{K: k, Method: core.MethodDense})
			if err != nil {
				b.Fatal(err)
			}
			m.AboveThreshold(m.ProjectQuery(q), 0.40)
		}
	}
}

// BenchmarkFig7FoldIn measures folding two documents into the example model.
func BenchmarkFig7FoldIn(b *testing.B) {
	m, err := core.BuildCollection(medCollection, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		b.Fatal(err)
	}
	d := medCollection.DocVectors(corpus.MEDUpdateTopics)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Clone().FoldInDocs(d)
	}
}

// BenchmarkFig8Recompute measures rebuilding the SVD of the 18×16 matrix.
func BenchmarkFig8Recompute(b *testing.B) {
	ext := medCollection.Extend(corpus.MEDUpdateTopics, corpus.MEDParseOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCollection(ext, core.Config{K: 2, Method: core.MethodDense}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Update measures the SVD-updating document phase.
func BenchmarkFig9Update(b *testing.B) {
	d := medCollection.DocVectors(corpus.MEDUpdateTopics)
	m, err := core.BuildCollection(medCollection, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Clone().UpdateDocs(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7 compares the three update paths at a realistic scale —
// the measured counterpart of Table 7's analytic flop counts. Sub-benches
// print in one run so the fold ≪ update < recompute ordering is visible.
func BenchmarkTable7(b *testing.B) {
	s := synth(400)
	extra := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 99, Topics: 10, Docs: 420, DocLen: 40,
		SynonymsPerConcept: 4, DocVariantLoyalty: 1.0, NoiseFrac: 0.35,
	}).Docs[400:]
	d := s.DocVectors(extra)
	base, err := core.BuildCollection(s.Collection, core.Config{K: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("FoldingInDocuments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base.Clone().FoldInDocs(d)
		}
	})
	b.Run("SVDUpdatingDocuments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := base.Clone().UpdateDocs(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RecomputingSVD", func(b *testing.B) {
		big := s.TD.AugmentCols(d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(big, core.Config{K: 30, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The analytic model for the same shape, reported as custom metrics.
	b.Run("AnalyticFlops", func(b *testing.B) {
		p := flops.Params{
			M: s.Terms(), N: s.Size(), K: 30, P: 20,
			I: 120, Trp: 30,
			NNZA: s.TD.NNZ(), NNZD: d.NNZ(),
		}
		var fold, upd, rec float64
		for i := 0; i < b.N; i++ {
			fold = flops.FoldingInDocuments(p)
			upd = flops.SVDUpdatingDocuments(p)
			rec = flops.RecomputingSVD(p)
		}
		b.ReportMetric(fold, "fold-flops")
		b.ReportMetric(upd, "update-flops")
		b.ReportMetric(rec, "recompute-flops")
	})
}

// BenchmarkRetrievalLSI / BenchmarkRetrievalKeyword time one full judged
// retrieval run of the §5.1 comparison.
func BenchmarkRetrievalLSI(b *testing.B) {
	s := synth(300)
	m, err := core.BuildCollection(s.Collection, core.Config{K: 20, Scheme: weight.LogEntropy, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range s.Queries {
			m.Rank(s.QueryVector(q.Text))
		}
	}
}

func BenchmarkRetrievalKeywordBaseline(b *testing.B) {
	s := synth(300)
	qvs := make([][]float64, len(s.Queries))
	for i, q := range s.Queries {
		qvs[i] = s.QueryVector(q.Text)
	}
	m := vsm.Build(s.TD, weight.LogEntropy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qv := range qvs {
			m.Rank(qv)
		}
	}
}

// BenchmarkKFactorsBuild times model construction across the §5.2 k sweep.
func BenchmarkKFactorsBuild(b *testing.B) {
	s := synth(300)
	for _, k := range []int{10, 50, 150} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildCollection(s.Collection, core.Config{K: k, Scheme: weight.LogEntropy, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeSVD is the §5.3 TREC-scale stand-in: a truncated SVD of a
// large sparse synthetic term–document matrix via Lanczos.
func BenchmarkLargeSVD(b *testing.B) {
	s := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 5, Topics: 20, Docs: 3000, DocLen: 60,
		SynonymsPerConcept: 4, NoiseWords: 200,
	})
	w := weight.Apply(s.TD, weight.LogEntropy)
	op := lanczos.OpCSR(w)
	b.ReportMetric(float64(w.NNZ()), "nnz")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lanczos.TruncatedSVD(op, lanczos.Options{K: 50, Seed: 1, MaxSteps: 500}); err != nil {
			b.Fatal(err)
		}
	}
}

// rankModel builds a serving-scale Model directly from random document
// vectors; only the scoring path is exercised, so the SVD is skipped.
func rankModel(docs, k int) *core.Model {
	rng := rand.New(rand.NewSource(7))
	v := dense.New(docs, k)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	s := make([]float64, k)
	for i := range s {
		s[i] = 1
	}
	return &core.Model{K: k, U: dense.New(1, k), S: s, V: v}
}

func randQuery(k int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]float64, k)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return q
}

// seedRankPath replicates the pre-engine query path: one full cosine per
// document (recomputing both norms) followed by an O(n log n) sort.
func seedRankPath(v *dense.Matrix, qhat []float64) []core.Ranked {
	out := make([]core.Ranked, v.Rows)
	for j := 0; j < v.Rows; j++ {
		out[j] = core.Ranked{Doc: j, Score: dense.Cosine(qhat, v.Row(j))}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Doc < out[b].Doc
	})
	return out
}

// BenchmarkQueryTop10 measures single-query top-10 latency — the
// scoring engine (cached norms + bounded heap selection) against the
// seed path it replaced — at serving-scale collection sizes.
func BenchmarkQueryTop10(b *testing.B) {
	const factors = 100
	for _, docs := range []int{10000, 50000} {
		m := rankModel(docs, factors)
		qhat := randQuery(factors, 11)
		m.RankVectorTop(qhat, 10) // warm the norm cache outside the timer
		b.Run(fmt.Sprintf("seed/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := seedRankPath(m.V, qhat); len(r) != docs {
					b.Fatal("bad rank")
				}
			}
		})
		b.Run(fmt.Sprintf("engine/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := m.RankVectorTop(qhat, 10); len(r) != 10 {
					b.Fatal("bad rank")
				}
			}
		})
	}
}

// BenchmarkQueryBatch measures batched throughput: 64 queries scored as
// one blocked gemm against the normalized document matrix, versus the
// same 64 queries served one at a time.
func BenchmarkQueryBatch(b *testing.B) {
	const (
		factors = 100
		nq      = 64
	)
	for _, docs := range []int{10000, 50000} {
		m := rankModel(docs, factors)
		qhats := make([][]float64, nq)
		for i := range qhats {
			qhats[i] = randQuery(factors, int64(100+i))
		}
		m.RankVectorTop(qhats[0], 10) // warm the norm cache
		b.Run(fmt.Sprintf("sequential/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qhats {
					if r := m.RankVectorTop(q, 10); len(r) != 10 {
						b.Fatal("bad rank")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("gemm/docs=%d", docs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := m.RankVectorBatch(qhats, 10); len(r) != nq {
					b.Fatal("bad batch")
				}
			}
		})
	}
}

// BenchmarkFoldInStream times the §5.3 filtering path: projecting incoming
// documents one at a time.
func BenchmarkFoldInStream(b *testing.B) {
	s := synth(400)
	train := corpus.New(s.Docs[:300], text.ParseOptions{MinDocs: 2})
	m, err := core.BuildCollection(train, core.Config{K: 20, Scheme: weight.LogEntropy, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	stream := make([][]float64, 0, 100)
	for _, d := range s.Docs[300:] {
		stream = append(stream, train.Vocab.Count(d.Text))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, doc := range stream {
			m.ProjectQuery(doc)
		}
	}
}
