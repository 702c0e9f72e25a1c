package shard

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sparse"
	"repro/internal/weight"
)

// benchHits and benchRows keep the measured calls' results live.
var (
	benchHits []Hit
	benchRows [][]Hit
)

// BenchmarkRouterShards measures the read path at 1, 2 and 4 shards over
// the corpus the index was built for: 12 000 single-topic documents at
// k = 64 (the shape of bench/'s topical-search), so one shard indexes
// 12 000 rows, two index 6 000 each, and four hold 3 000 each — below
// rank.DefaultIVFMinRows, so they serve with no index at all. Every
// shard count must return the 1-shard router's IDs and score bits for
// every query, single and batched, before anything is timed. Beside
// ns/op (one query, or one batch of 16) each case reports rows/query and
// cells/query — mirror rows scanned and IVF cells visited per router
// query, summed over shards, from Router.Stats() deltas: the cost of
// sharding on the read side, and the number a shard-invariant index
// (ROADMAP, "Shard-invariant pruning") has to bring down.
func BenchmarkRouterShards(b *testing.B) {
	const topN, batch = 10, 16
	synth := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 1, Topics: 64, ConceptsPerTopic: 24, Docs: 12000, DocLen: 60,
		NoiseWords: 200, NoiseZipf: true, QueriesPerTopic: 4,
	})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 64, Scheme: weight.LogEntropy})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]sparse.Vec, len(synth.Queries))
	for i, q := range synth.Queries {
		queries[i] = coll.QueryCounts(q.Text)
	}

	var want [][]Hit // the 1-shard router's answers
	for _, shards := range []int{1, 2, 4} {
		r, err := New(coll, model, Config{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		single := make([][]Hit, len(queries))
		for i, q := range queries {
			single[i], _ = r.SearchSparse(q, topN)
		}
		batched, _ := r.SearchBatchSparse(queries, topN)
		if shards == 1 {
			want = single
		}
		for i := range want {
			sameHits(b, fmt.Sprintf("%d shards, query %d", shards, i), single[i], want[i])
			sameHits(b, fmt.Sprintf("%d shards, batched query %d", shards, i), batched[i], want[i])
		}

		// run times b.N calls of search, each serving perCall queries.
		run := func(name string, perCall int, search func(i int)) {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(b *testing.B) {
				before := r.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					search(i)
				}
				b.StopTimer()
				after, served := r.Stats(), float64(b.N*perCall)
				b.ReportMetric(float64(after.ScannedRows-before.ScannedRows)/served, "rows/query")
				b.ReportMetric(float64(after.ClustersScanned-before.ClustersScanned)/served, "cells/query")
			})
		}
		run("single", 1, func(i int) {
			benchHits, _ = r.SearchSparse(queries[i%len(queries)], topN)
		})
		run(fmt.Sprintf("batch%d", batch), batch, func(i int) {
			lo := i * batch % (len(queries) - batch + 1)
			benchRows, _ = r.SearchBatchSparse(queries[lo:lo+batch], topN)
		})
		closeRouter(b, r)
	}
}
