package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/shard"
	"repro/internal/weight"
)

// strategyTable is the shared parity surface: every strategy test runs
// over exactly these configurations.
var strategyTable = []struct {
	name     string
	strategy core.UpdateStrategy
	gkRank   int
}{
	{"obrien", core.StrategyOBrien, 0},
	{"gk", core.StrategyGK, 16},
}

// TestEngineStrategyParitySuite is the shared end-to-end parity suite for
// the two compaction strategies: the same submit/delete script runs under
// each behind a 1-shard router, churning through repeated monitor-driven
// compactions (fold-ins absorbed, deleted rows downdated out), and the
// resulting engines are judged on the eval harness — mean average precision over the synthetic corpus's relevance
// judgments — against a full truncated-SVD recompute of the final live
// corpus. Both strategies must stay within tolerance of the recompute and
// of each other, and each published generation must answer repeated
// queries byte-identically.
func TestEngineStrategyParitySuite(t *testing.T) {
	syn := corpus.GenerateSynth(corpus.SynthOptions{Seed: 9, Docs: 160, Topics: 8})
	coll := syn.Collection
	n := coll.Size()
	cut := n * 3 / 4
	idx := make([]int, cut)
	for i := range idx {
		idx[i] = i
	}
	baseColl := coll.Subset(idx)
	const k = 20

	origIdx := make(map[string]int, n)
	for j, d := range coll.Docs {
		origIdx[d.ID] = j
	}
	// The script: fold in the held-out quarter, then delete a spread of
	// base docs (downdate path) and folded docs (drop path).
	var deleted []string
	for i := 0; i < cut; i += 15 {
		deleted = append(deleted, coll.Docs[i].ID)
	}
	for i := cut; i < n; i += 10 {
		deleted = append(deleted, coll.Docs[i].ID)
	}
	isDeleted := make(map[string]bool, len(deleted))
	for _, id := range deleted {
		isDeleted[id] = true
	}

	levels := []float64{0.25, 0.5, 0.75}
	mapOf := func(rank func(q string) []int) float64 {
		var rankings [][]int
		var rels []map[int]bool
		for _, q := range syn.Queries {
			rankings = append(rankings, rank(q.Text))
			rels = append(rels, eval.RelevantSet(q.Relevant))
		}
		return eval.MeanAveragePrecision(rankings, rels, levels)
	}

	maps := make(map[string]float64, len(strategyTable))
	for _, tc := range strategyTable {
		t.Run(tc.name, func(t *testing.T) {
			model, err := core.BuildCollection(baseColl, core.Config{K: k, Scheme: weight.LogEntropy})
			if err != nil {
				t.Fatal(err)
			}
			r := newRouter(t, baseColl, model, engine.Config{
				BatchTick:          time.Millisecond,
				CompactThreshold:   1e-9, // every fold crosses it: maximum churn
				CompactionStrategy: tc.strategy,
				GKRank:             tc.gkRank,
			})
			for _, d := range coll.Docs[cut:] {
				submit(t, r, d)
			}
			for _, id := range deleted {
				if _, err := r.Delete(context.Background(), id); err != nil {
					t.Fatalf("delete %s: %v", id, err)
				}
			}
			waitStats(t, r, "a quiescent compacted state", func(st shard.Stats) bool {
				return st.Compactions >= 2 && !st.Compacting && st.QueueDepth == 0 &&
					st.FoldedDocuments == 0 && st.Tombstones == 0
			})
			s := r.ShardSnapshot(0)
			if s.NumDocs() != n-len(deleted) {
				t.Fatalf("%d docs want %d", s.NumDocs(), n-len(deleted))
			}
			for j := 0; j < s.NumDocs(); j++ {
				if isDeleted[s.Doc(j).ID] {
					t.Fatalf("deleted doc %s survived the script", s.Doc(j).ID)
				}
			}
			if o := s.Model.DocOrthogonality(); o > 1e-6 {
				t.Fatalf("orthogonality %g after compaction", o)
			}
			// Per-generation byte-stability: the same snapshot answers the
			// same query identically, run to run.
			qv := baseColl.QueryVector(syn.Queries[0].Text)
			if a, b := s.RankTop(qv, 20), s.RankTop(qv, 20); !reflect.DeepEqual(a, b) {
				t.Fatal("same-generation results diverged")
			}
			maps[tc.name] = mapOf(func(q string) []int {
				ranked := s.RankTop(baseColl.QueryVector(q), s.NumDocs())
				out := make([]int, len(ranked))
				for i, r := range ranked {
					out[i] = origIdx[s.Doc(r.Doc).ID]
				}
				return out
			})
		})
	}
	if t.Failed() {
		return
	}

	// The truncated-SVD reference: a full recompute over exactly the live
	// documents the script left behind.
	var liveIdx []int
	for j, d := range coll.Docs {
		if !isDeleted[d.ID] {
			liveIdx = append(liveIdx, j)
		}
	}
	liveColl := coll.Subset(liveIdx)
	full, err := core.BuildCollection(liveColl, core.Config{K: k, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	mFull := mapOf(func(q string) []int {
		ranked := full.Rank(liveColl.QueryVector(q))
		out := make([]int, len(ranked))
		for i, r := range ranked {
			out[i] = origIdx[liveColl.Docs[r.Doc].ID]
		}
		return out
	})
	t.Logf("MAP: obrien %.4f gk %.4f full recompute %.4f", maps["obrien"], maps["gk"], mFull)
	for name, m := range maps {
		if m < mFull-0.05 {
			t.Errorf("%s MAP %.4f more than 0.05 below full recompute %.4f", name, m, mFull)
		}
	}
	if d := maps["obrien"] - maps["gk"]; d > 0.03 || d < -0.03 {
		t.Errorf("strategy MAPs diverge: obrien %.4f vs gk %.4f", maps["obrien"], maps["gk"])
	}
}

// TestStressStrategyChurn runs interleaved submit/delete/query traffic
// under each compaction strategy with the race detector's help, requiring
// at least two compactions per strategy before the pipeline settles.
func TestStressStrategyChurn(t *testing.T) {
	for _, tc := range strategyTable {
		t.Run(tc.name, func(t *testing.T) {
			r, coll := testRouter(t, engine.Config{
				QueueSize:          1024,
				BatchTick:          200 * time.Microsecond,
				CompactThreshold:   1e-9,
				CompactionStrategy: tc.strategy,
				GKRank:             tc.gkRank,
			})
			const writers = 30
			toDelete := make(chan string, writers)
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				defer close(toDelete)
				ctx := context.Background()
				for i := 0; i < writers; i++ {
					id := fmt.Sprintf("W%d", i)
					if _, _, err := r.Submit(ctx, corpus.Document{ID: id, Text: fmt.Sprintf("glucose culture pressure %d", i)}); err != nil {
						t.Errorf("submit %d: %v", i, err)
						return
					}
					if i%3 == 0 {
						toDelete <- id
					}
				}
			}()
			deleted := 0
			deleterDone := make(chan struct{})
			go func() {
				defer close(deleterDone)
				ctx := context.Background()
				for id := range toDelete {
					if _, err := r.Delete(ctx, id); err != nil {
						t.Errorf("delete %s: %v", id, err)
						return
					}
					deleted++
				}
			}()
			var wg sync.WaitGroup
			query := coll.QueryVector("glucose culture")
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 80; i++ {
						s := r.ShardSnapshot(0)
						for _, hit := range s.RankTop(query, 8) {
							if s.Dead.Has(hit.Doc) {
								t.Errorf("tombstoned row %d surfaced", hit.Doc)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			<-writerDone
			<-deleterDone
			waitStats(t, r, "the pipeline to settle", func(st shard.Stats) bool {
				return st.Documents == 14+writers-deleted && st.Tombstones == 0 && !st.Compacting &&
					st.QueueDepth == 0 && st.Compactions >= 2 && st.FoldedDocuments == 0
			})
		})
	}
}
