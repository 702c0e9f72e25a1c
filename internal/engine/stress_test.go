package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/synonym"
)

// TestStressSnapshotIsolation is the core race/stress proof for the
// serving engine (behind its 1-shard router): reader goroutines hammer
// ranking, batch ranking, and term lookup off atomic snapshots while a
// writer streams fold-ins and a tiny compaction threshold has the
// router's monitor land repeated SVD-update compactions. Run
// under -race (make stress) this demonstrates that:
//
//   - readers never block on the updater (they only load a pointer; any
//     lock shared with the writer would show as contention or a race),
//   - every observed snapshot is internally consistent (doc indices
//     resolve, scores sorted, model/docs/cache agree on the doc count),
//   - results for the same query against the same snapshot generation are
//     deterministic, and
//   - the generation observed by each reader increases monotonically
//     while at least two compactions complete.
func TestStressSnapshotIsolation(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	r, coll := testRouter(t, engine.Config{
		QueueSize:        1024,
		BatchTick:        200 * time.Microsecond,
		CompactThreshold: 1e-9, // every fold crosses it: maximum churn
	})
	const (
		writers = 40 // documents streamed in
		readers = 4
		reads   = 120
	)
	queries := [][]float64{
		coll.QueryVector("age blood abnormalities"),
		coll.QueryVector("depressed patients fast culture"),
		coll.QueryVector("oestrogen detected rise"),
	}

	// Per-generation result pinning: the first reader to see a generation
	// records its result; everyone else landing on that generation must
	// match exactly.
	var pinMu sync.Mutex
	pinned := make(map[uint64][]string)

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ctx := context.Background()
		for i := 0; i < writers; i++ {
			if _, _, err := r.Submit(ctx, corpus.Document{Text: fmt.Sprintf("depressed rats culture pressure %d", i)}); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastGen uint64
			for i := 0; i < reads; i++ {
				s := r.ShardSnapshot(0)
				if s.Gen < lastGen {
					t.Errorf("reader %d: generation went backwards %d -> %d", g, lastGen, s.Gen)
					return
				}
				lastGen = s.Gen
				if s.Model.NumDocs() != s.NumDocs() || s.Eng.NumDocs() != s.NumDocs() {
					t.Errorf("reader %d: inconsistent snapshot: model=%d docs=%d eng=%d",
						g, s.Model.NumDocs(), s.NumDocs(), s.Eng.NumDocs())
					return
				}
				switch i % 3 {
				case 0:
					ranked := s.RankTop(queries[i%len(queries)], 8)
					keys := make([]string, 0, len(ranked))
					for j, hit := range ranked {
						if hit.Doc < 0 || hit.Doc >= s.NumDocs() || s.Doc(hit.Doc).ID == "" {
							t.Errorf("reader %d: unresolvable doc index %d", g, hit.Doc)
							return
						}
						if j > 0 && ranked[j-1].Score < hit.Score {
							t.Errorf("reader %d: scores not sorted", g)
							return
						}
						keys = append(keys, fmt.Sprintf("%s:%x", s.Doc(hit.Doc).ID, hit.Score))
					}
					if i%len(queries) == 0 {
						pinMu.Lock()
						if prev, ok := pinned[s.Gen]; ok {
							if !reflect.DeepEqual(prev, keys) {
								t.Errorf("reader %d: generation %d results diverged\n got %v\nwant %v", g, s.Gen, keys, prev)
							}
						} else {
							pinned[s.Gen] = keys
						}
						pinMu.Unlock()
					}
				case 1:
					batch := s.RankBatch(queries, 5)
					if len(batch) != len(queries) {
						t.Errorf("reader %d: batch size %d", g, len(batch))
						return
					}
					for _, ranked := range batch {
						for _, hit := range ranked {
							if hit.Doc < 0 || hit.Doc >= s.NumDocs() {
								t.Errorf("reader %d: batch doc index %d out of range %d", g, hit.Doc, s.NumDocs())
								return
							}
						}
					}
				case 2:
					if _, err := synonym.NearestTerms(s.Model, coll.Vocab, "blood", 5); err != nil {
						t.Errorf("reader %d: terms: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	<-writerDone

	// Let the pipeline settle, then check the end state.
	st := waitStats(t, r, "the pipeline to settle", func(st shard.Stats) bool {
		return st.Documents == 14+writers && !st.Compacting && st.QueueDepth == 0 && st.Compactions >= 2 && st.FoldedDocuments == 0
	})
	if st.Compactions < 2 {
		t.Fatalf("only %d compactions; stress target is ≥2", st.Compactions)
	}
	s := r.ShardSnapshot(0)
	if s.Gen < uint64(st.Compactions)+1 {
		t.Fatalf("generation %d lower than compaction count %d", s.Gen, st.Compactions)
	}
	// Every streamed document is present exactly once.
	seen := make(map[string]int)
	for j := 0; j < s.NumDocs(); j++ {
		seen[s.Doc(j).ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %s appears %d times", id, n)
		}
	}
	if len(seen) != 14+writers {
		t.Fatalf("%d unique ids want %d", len(seen), 14+writers)
	}
}

// TestStressDeleteTraffic adds concurrent deletes to the churn: a writer
// streams fold-ins, a deleter tombstones every third document as soon as
// its batch published, readers keep ranking throughout, and a tiny
// compaction threshold keeps compactions (fold-ins absorbed, tombstones
// folded out by downdates) running under all of it. Snapshot-consistent
// invariant: a result row is never tombstoned in the snapshot that
// produced it. End state: every deleted document is physically gone,
// every surviving one present exactly once.
func TestStressDeleteTraffic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	r, coll := testRouter(t, engine.Config{
		QueueSize:        1024,
		BatchTick:        200 * time.Microsecond,
		CompactThreshold: 1e-9,
	})
	const (
		writers = 40
		readers = 4
		reads   = 120
	)
	queries := [][]float64{
		coll.QueryVector("age blood abnormalities"),
		coll.QueryVector("depressed patients fast culture"),
		coll.QueryVector("oestrogen detected rise"),
	}

	toDelete := make(chan string, writers)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		defer close(toDelete)
		ctx := context.Background()
		for i := 0; i < writers; i++ {
			id := fmt.Sprintf("S%d", i)
			if _, _, err := r.Submit(ctx, corpus.Document{ID: id, Text: fmt.Sprintf("depressed rats culture pressure %d", i)}); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if i%3 == 0 {
				toDelete <- id
			}
		}
	}()
	deleterDone := make(chan struct{})
	deleted := make(map[string]bool, writers/3+1)
	go func() {
		defer close(deleterDone)
		ctx := context.Background()
		for id := range toDelete {
			if _, err := r.Delete(ctx, id); err != nil {
				t.Errorf("delete %s: %v", id, err)
				return
			}
			deleted[id] = true
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				s := r.ShardSnapshot(0)
				if s.Model.NumDocs() != s.NumDocs() || s.Eng.NumDocs() != s.NumDocs() {
					t.Errorf("reader %d: inconsistent snapshot: model=%d docs=%d eng=%d",
						g, s.Model.NumDocs(), s.NumDocs(), s.Eng.NumDocs())
					return
				}
				if s.LiveDocs()+s.Tombstones() != s.NumDocs() {
					t.Errorf("reader %d: live %d + dead %d != physical %d",
						g, s.LiveDocs(), s.Tombstones(), s.NumDocs())
					return
				}
				ranked := s.RankTop(queries[i%len(queries)], 8)
				for j, hit := range ranked {
					if hit.Doc < 0 || hit.Doc >= s.NumDocs() {
						t.Errorf("reader %d: doc index %d out of range", g, hit.Doc)
						return
					}
					if s.Dead.Has(hit.Doc) {
						t.Errorf("reader %d: tombstoned row %d (%s) surfaced", g, hit.Doc, s.Doc(hit.Doc).ID)
						return
					}
					if j > 0 && ranked[j-1].Score < hit.Score {
						t.Errorf("reader %d: scores not sorted", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	<-writerDone
	<-deleterDone

	want := 14 + writers - len(deleted)
	waitStats(t, r, "the pipeline to settle", func(st shard.Stats) bool {
		return st.Documents == want && st.Tombstones == 0 && !st.Compacting &&
			st.QueueDepth == 0 && st.Compactions >= 2 && st.FoldedDocuments == 0
	})
	s := r.ShardSnapshot(0)
	seen := make(map[string]int)
	for j := 0; j < s.NumDocs(); j++ {
		seen[s.Doc(j).ID]++
	}
	for id, n := range seen {
		if deleted[id] {
			t.Fatalf("deleted id %s still physically present", id)
		}
		if n != 1 {
			t.Fatalf("id %s appears %d times", id, n)
		}
	}
	if len(seen) != want {
		t.Fatalf("%d unique ids want %d", len(seen), want)
	}
}
