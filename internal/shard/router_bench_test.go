package shard

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sparse"
	"repro/internal/weight"
)

// topicalTier is the benchmarks' corpus and model: 12 000 single-topic
// documents at k = 64, the shape of bench/'s topical-search tier.
func topicalTier(b *testing.B) (*corpus.Synth, *core.Model) {
	synth := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 1, Topics: 64, ConceptsPerTopic: 24, Docs: 12000, DocLen: 60,
		NoiseWords: 200, NoiseZipf: true, QueriesPerTopic: 4,
	})
	model, err := core.BuildCollection(synth.Collection, core.Config{K: 64, Scheme: weight.LogEntropy})
	if err != nil {
		b.Fatal(err)
	}
	return synth, model
}

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
	synth, model := topicalTier(b)
	coll := synth.Collection
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

// BenchmarkRestore measures Restore of the topical tier's snapshot at 1
// and 3 shards: the docs record decode, the model views, the parallel
// per-shard derivation of the scoring tiers and the certification of the
// saved cell membership. Closing the restored tier is not timed. Run
// with -benchmem: B/op is what a restore copies onto the heap (the
// factors stay in the mapping).
func BenchmarkRestore(b *testing.B) {
	synth, model := topicalTier(b)
	for _, shards := range []int{1, 3} {
		r, err := New(synth.Collection, model, Config{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "tier.lsnp")
		if err := r.SaveSnapshot(path); err != nil {
			b.Fatal(err)
		}
		closeRouter(b, r)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				restored, f, err := Restore(path, Config{}, false)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				closeRouter(b, restored)
				f.Close()
				b.StartTimer()
			}
		})
	}
}
