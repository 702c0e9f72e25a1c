package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
)

// TestStressShardedScatterGather is the sharded counterpart of the
// engine's snapshot-isolation stress: three shards, racing submitters
// (user-ID and auto-ID mixed, plus deliberate duplicates), reader
// goroutines hammering merged Search/SearchBatch, and a hair-trigger
// monitor forcing coordinated compactions mid-flight. Run under -race
// (make stress) this demonstrates that:
//
//   - the merged result for a given per-shard generation VECTOR is
//     byte-stable: any two reads that observed the same vector got
//     identical hits, even while compactions were landing on some shards
//     and not others,
//   - each shard's generation is monotone from every reader's view and
//     merged hits are sorted and internally consistent,
//   - ≥2 coordinated compactions complete while submissions race, and
//   - Close drains: every acknowledged document — including a final
//     fire-and-forget burst still sitting in the queues — is present in
//     exactly one shard's final snapshot.
func TestStressShardedScatterGather(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 9, Docs: 40, Topics: 5})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 6, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(coll, model, Config{
		Shards: 3,
		Engine: engine.Config{
			QueueSize:        1024,
			BatchTick:        200 * time.Microsecond,
			CompactThreshold: 1e-9, // every fold crosses it: maximum churn
		},
		CompactCheck: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 3
		docsPerWrite = 20
		readers      = 4
		reads        = 120
	)
	queries := make([][]float64, 0, 3)
	for _, q := range synth.Queries[:3] {
		queries = append(queries, coll.QueryVector(q.Text))
	}

	// Acknowledged IDs: Submit returned nil (folded) — plus, later, the
	// fire-and-forget burst. Every one must survive Close.
	var ackMu sync.Mutex
	acked := make(map[string]bool)

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			ctx := context.Background()
			for i := 0; i < docsPerWrite; i++ {
				doc := corpus.Document{Text: coll.Docs[(w*docsPerWrite+i)%coll.Size()].Text}
				if i%2 == 0 {
					doc.ID = fmt.Sprintf("w%d-%02d", w, i)
				}
				id, _, err := r.Submit(ctx, doc)
				if err != nil {
					t.Errorf("writer %d submit %d: %v", w, i, err)
					return
				}
				ackMu.Lock()
				acked[id] = true
				ackMu.Unlock()
				// Duplicates must be rejected globally no matter which
				// shard owns the original.
				if doc.ID != "" {
					if _, _, err := r.Submit(ctx, doc); !errors.Is(err, engine.ErrDuplicateID) {
						t.Errorf("writer %d: duplicate %q: %v", w, doc.ID, err)
						return
					}
				}
			}
		}(w)
	}

	// Per-generation-vector result pinning for the merged search.
	var pinMu sync.Mutex
	pinned := make(map[string][]string)

	var readerWG sync.WaitGroup
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			lastGens := make([]uint64, r.Shards())
			for i := 0; i < reads; i++ {
				if i%3 == 2 {
					rows, _ := r.SearchBatch(queries, 5)
					if len(rows) != len(queries) {
						t.Errorf("reader %d: batch size %d", g, len(rows))
						return
					}
					continue
				}
				hits, gens := r.Search(queries[i%len(queries)], 8)
				for s, gen := range gens {
					if gen < lastGens[s] {
						t.Errorf("reader %d: shard %d generation went backwards %d -> %d", g, s, lastGens[s], gen)
						return
					}
					lastGens[s] = gen
				}
				keys := make([]string, 0, len(hits))
				for j, h := range hits {
					if h.ID == "" || h.Shard < 0 || h.Shard >= r.Shards() {
						t.Errorf("reader %d: malformed hit %+v", g, h)
						return
					}
					if j > 0 && hits[j-1].Score < h.Score {
						t.Errorf("reader %d: merged scores not sorted", g)
						return
					}
					keys = append(keys, fmt.Sprintf("%s:%x", h.ID, h.Score))
				}
				if i%len(queries) == 0 {
					vec := fmt.Sprint(gens)
					pinMu.Lock()
					if prev, ok := pinned[vec]; ok {
						if !reflect.DeepEqual(prev, keys) {
							t.Errorf("reader %d: generation vector %s results diverged\n got %v\nwant %v", g, vec, keys, prev)
						}
					} else {
						pinned[vec] = keys
					}
					pinMu.Unlock()
				}
			}
		}(g)
	}
	readerWG.Wait()
	writerWG.Wait()

	// Let the pipeline settle: everything folded, then absorbed by the
	// monitor's coordinated compactions.
	streamed := writers * docsPerWrite
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := r.Stats()
		if st.Documents == coll.Size()+streamed && st.QueueDepth == 0 &&
			!st.Compacting && st.Compactions >= 2 && st.FoldedDocuments == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not settle: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Final fire-and-forget burst, then an immediate Close: the drain must
	// publish every one of these before the routers' engines stop.
	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	const burst = 12
	for i := 0; i < burst; i++ {
		id, _, err := r.Submit(expired, corpus.Document{ID: fmt.Sprintf("burst-%02d", i), Text: coll.Docs[i].Text})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("burst submit %d: %v", i, err)
		}
		acked[id] = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Every acknowledged document is in exactly one shard's final
	// snapshot, alongside the seed corpus, with no extras.
	seen := make(map[string]int)
	total := 0
	for s := 0; s < r.Shards(); s++ {
		snap := r.ShardSnapshot(s)
		total += snap.NumDocs()
		for j := 0; j < snap.NumDocs(); j++ {
			seen[snap.Doc(j).ID]++
		}
	}
	if total != coll.Size()+streamed+burst {
		t.Fatalf("final corpus has %d documents, want %d", total, coll.Size()+streamed+burst)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %s appears %d times across shards", id, n)
		}
	}
	for id := range acked {
		if seen[id] != 1 {
			t.Fatalf("acknowledged id %s lost in drain", id)
		}
	}
}

// TestStressShardedDeleteTraffic adds racing deletes to the sharded
// stress: writers stream documents (handing every user-ID one straight to
// a deleter, so deletes hit documents still mid-flight through fold-in
// and compaction absorption), the hair-trigger monitor keeps coordinated
// compactions — now including downdate fold-outs — landing underneath,
// and readers hammer the merged search throughout. The final Close drains
// a fire-and-forget burst of submits AND deletes; the ending snapshots
// must account for every tombstone: no confirmed-deleted document is live
// anywhere, every surviving acknowledged document is live exactly once.
func TestStressShardedDeleteTraffic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 11, Docs: 40, Topics: 5})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 6, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(coll, model, Config{
		Shards: 3,
		Engine: engine.Config{
			QueueSize:        1024,
			BatchTick:        200 * time.Microsecond,
			CompactThreshold: 1e-9,
		},
		CompactCheck: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 3
		docsPerWrite = 20
		readers      = 3
		reads        = 100
	)
	queries := make([][]float64, 0, 3)
	for _, q := range synth.Queries[:3] {
		queries = append(queries, coll.QueryVector(q.Text))
	}

	var ackMu sync.Mutex
	acked := make(map[string]bool)
	deleted := make(map[string]bool)

	toDelete := make(chan string, writers*docsPerWrite)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			ctx := context.Background()
			for i := 0; i < docsPerWrite; i++ {
				doc := corpus.Document{Text: coll.Docs[(w*docsPerWrite+i)%coll.Size()].Text}
				if i%2 == 0 {
					doc.ID = fmt.Sprintf("w%d-%02d", w, i)
				}
				id, _, err := r.Submit(ctx, doc)
				if err != nil {
					t.Errorf("writer %d submit %d: %v", w, i, err)
					return
				}
				ackMu.Lock()
				acked[id] = true
				ackMu.Unlock()
				if i%2 == 0 {
					// Hand it to the deleter immediately: the row may still be
					// mid-flight through a compaction's frozen pending list.
					toDelete <- id
				}
			}
		}(w)
	}
	var deleterWG sync.WaitGroup
	deleterWG.Add(1)
	go func() {
		defer deleterWG.Done()
		ctx := context.Background()
		for id := range toDelete {
			if _, err := r.Delete(ctx, id); err != nil {
				t.Errorf("delete %s: %v", id, err)
				return
			}
			ackMu.Lock()
			deleted[id] = true
			ackMu.Unlock()
		}
	}()

	var readerWG sync.WaitGroup
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			for i := 0; i < reads; i++ {
				hits, _ := r.Search(queries[i%len(queries)], 8)
				for j, h := range hits {
					if h.ID == "" || h.Shard < 0 || h.Shard >= r.Shards() {
						t.Errorf("reader %d: malformed hit %+v", g, h)
						return
					}
					if j > 0 && hits[j-1].Score < h.Score {
						t.Errorf("reader %d: merged scores not sorted", g)
						return
					}
				}
			}
		}(g)
	}
	readerWG.Wait()
	writerWG.Wait()
	close(toDelete)
	deleterWG.Wait()

	// Settle: all fold-ins absorbed and every tombstone folded out by the
	// monitor's coordinated compactions.
	streamed := writers * docsPerWrite
	wantLive := coll.Size() + streamed - len(deleted)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := r.Stats()
		if st.Documents == wantLive && st.Tombstones == 0 && st.QueueDepth == 0 &&
			!st.Compacting && st.Compactions >= 2 && st.FoldedDocuments == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not settle: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Fire-and-forget burst: submits immediately chased by deletes of half
	// of them, all still queued when Close's drain runs.
	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	const burst = 12
	for i := 0; i < burst; i++ {
		id := fmt.Sprintf("burst-%02d", i)
		if _, _, err := r.Submit(expired, corpus.Document{ID: id, Text: coll.Docs[i].Text}); !errors.Is(err, context.Canceled) {
			t.Fatalf("burst submit %d: %v", i, err)
		}
		acked[id] = true
		if i%2 == 1 {
			if _, err := r.Delete(expired, id); !errors.Is(err, context.Canceled) {
				t.Fatalf("burst delete %d: %v", i, err)
			}
			deleted[id] = true
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The drain accounted for every tombstone: deleted documents are never
	// live, surviving acknowledged documents are live exactly once.
	live := make(map[string]int)
	for s := 0; s < r.Shards(); s++ {
		snap := r.ShardSnapshot(s)
		for j := 0; j < snap.NumDocs(); j++ {
			id := snap.Doc(j).ID
			if snap.Dead.Has(j) {
				if !deleted[id] {
					t.Fatalf("shard %d: live doc %s tombstoned", s, id)
				}
				continue
			}
			live[id]++
		}
	}
	for id := range deleted {
		if live[id] != 0 {
			t.Fatalf("deleted id %s still live", id)
		}
	}
	for id := range acked {
		if deleted[id] {
			continue
		}
		if live[id] != 1 {
			t.Fatalf("acknowledged id %s live %d times, want 1", id, live[id])
		}
	}
}
