package engine_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/shard"
)

// The tests in this package drive the engine the way production does:
// behind a 1-shard shard.Router — the single-engine configuration —
// whose monitor is the only compaction trigger. Engine.CompactThreshold
// is the knob the monitor reads.

// newRouter serves coll/model through a 1-shard router and closes it
// with the test.
func newRouter(t *testing.T, coll *corpus.Collection, model *core.Model, cfg engine.Config) *shard.Router {
	t.Helper()
	r, err := shard.New(coll, model, shard.Config{Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return r
}

// testRouter is newRouter over the MED example at k=2.
func testRouter(t *testing.T, cfg engine.Config) (*shard.Router, *corpus.Collection) {
	t.Helper()
	coll := corpus.MED()
	model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	return newRouter(t, coll, model, cfg), coll
}

// submit folds one document in through the router.
func submit(t *testing.T, r *shard.Router, doc corpus.Document) string {
	t.Helper()
	id, _, err := r.Submit(context.Background(), doc)
	if err != nil {
		t.Fatalf("submit %q: %v", doc.ID, err)
	}
	return id
}

// waitStats spins until pred accepts the router's stats.
func waitStats(t *testing.T, r *shard.Router, what string, pred func(shard.Stats) bool) shard.Stats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := r.Stats()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitCompacted spins until at least one compaction has landed and the
// pipeline is quiescent again.
func waitCompacted(t *testing.T, r *shard.Router) {
	t.Helper()
	waitStats(t, r, "a quiescent compacted state", func(st shard.Stats) bool {
		return st.Compactions > 0 && !st.Compacting && st.FoldedDocuments == 0
	})
}

// TestCompactionRestoresOrthogonality: with a tiny threshold every batch
// triggers an SVD-update compaction; the compacted snapshot has zero
// folded documents, near-zero orthogonality loss, an advanced generation,
// and still resolves every document ID.
func TestCompactionRestoresOrthogonality(t *testing.T) {
	r, coll := testRouter(t, engine.Config{BatchTick: time.Millisecond, CompactThreshold: 1e-9})
	ids := make(map[string]bool)
	for i := 0; i < 6; i++ {
		ids[submit(t, r, corpus.Document{Text: fmt.Sprintf("depressed patients fast culture %d", i)})] = true
	}
	waitCompacted(t, r)
	s := r.ShardSnapshot(0)
	if s.NumDocs() != 20 {
		t.Fatalf("%d docs want 20", s.NumDocs())
	}
	if f := s.Model.FoldedDocs(); f != 0 {
		t.Fatalf("compacted snapshot still has %d folded docs", f)
	}
	if o := s.Model.DocOrthogonality(); o > 1e-6 {
		t.Fatalf("orthogonality %g after compaction", o)
	}
	for id := range ids {
		found := false
		for j := 0; j < s.NumDocs(); j++ {
			if s.Doc(j).ID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("id %s lost in compaction", id)
		}
	}
	// Ranking still works against the rotated coordinates.
	ranked := s.RankTop(coll.QueryVector("depressed patients"), 5)
	if len(ranked) != 5 {
		t.Fatalf("got %d results", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Fatal("scores not sorted")
		}
	}
}

// TestDeleteCompactionFoldsOut drives the fold-out machinery end to end
// for both compaction strategies, with a deterministic compaction
// schedule (the orthogonality trigger is parked at an unreachable level,
// so only tombstones launch compactions — exactly one per delete):
//
//  1. deleting a pending (folded-in) document compacts to the base with
//     the live pending absorbed and the dead entry dropped — byte-equal
//     to UpdateDocsOpts on the live subset;
//  2. deleting a base document compacts by downdating — byte-equal to
//     DowndateDocs on the live rows.
func TestDeleteCompactionFoldsOut(t *testing.T) {
	for _, tc := range strategyTable {
		t.Run(tc.name, func(t *testing.T) {
			coll := corpus.MED()
			model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
			if err != nil {
				t.Fatal(err)
			}
			ref := model.SharedClone()
			r := newRouter(t, coll, model, engine.Config{
				BatchTick:          time.Millisecond,
				CompactThreshold:   1e9, // orthogonality never triggers; deletes do
				CompactionStrategy: tc.strategy,
			})
			ctx := context.Background()
			pend := make([]corpus.Document, 6)
			for i := range pend {
				pend[i] = corpus.Document{
					ID:   fmt.Sprintf("P%d", i),
					Text: fmt.Sprintf("fast generation of behavioural changes %d in depressed rats", i),
				}
				submit(t, r, pend[i])
			}
			if got := r.Stats(); got.Compactions != 0 {
				t.Fatalf("compaction before any delete: %+v", got)
			}

			waitCompaction := func(n int64) *engine.Snapshot {
				t.Helper()
				waitStats(t, r, fmt.Sprintf("compaction %d", n), func(st shard.Stats) bool {
					return st.Compactions == n && !st.Compacting && st.Tombstones == 0 && st.FoldedDocuments == 0
				})
				return r.ShardSnapshot(0)
			}
			sameV := func(s *engine.Snapshot, want *core.Model) {
				t.Helper()
				if s.Model.NumDocs() != want.NumDocs() {
					t.Fatalf("rows: engine %d, reference %d", s.Model.NumDocs(), want.NumDocs())
				}
				for j := 0; j < want.NumDocs(); j++ {
					a, b := s.Model.V.Row(j), want.V.Row(j)
					for c := range a {
						if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
							t.Fatalf("row %d col %d: engine %v != reference %v", j, c, a[c], b[c])
						}
					}
				}
			}

			// Phase 1: delete a pending document. The triggered compaction
			// absorbs the five live pending docs and drops the dead one.
			if _, err := r.Delete(ctx, "P2"); err != nil {
				t.Fatal(err)
			}
			s := waitCompaction(1)
			live := append(append([]corpus.Document(nil), pend[:2]...), pend[3:]...)
			opts := core.UpdateOptions{Strategy: tc.strategy}
			if err := ref.UpdateDocsOpts(coll.DocVectors(live), opts); err != nil {
				t.Fatal(err)
			}
			sameV(s, ref)
			if s.NumDocs() != 19 {
				t.Fatalf("%d docs after fold-out, want 19", s.NumDocs())
			}
			for j := 0; j < s.NumDocs(); j++ {
				if s.Doc(j).ID == "P2" {
					t.Fatal("deleted pending doc survived compaction")
				}
			}

			// Phase 2: delete a base document. The triggered compaction
			// folds its row out with a downdate.
			var liveRows []int
			for j := 0; j < s.NumDocs(); j++ {
				if s.Doc(j).ID != "M3" {
					liveRows = append(liveRows, j)
				}
			}
			if len(liveRows) != s.NumDocs()-1 {
				t.Fatal("M3 not found")
			}
			if _, err := r.Delete(ctx, "M3"); err != nil {
				t.Fatal(err)
			}
			s = waitCompaction(2)
			if err := ref.DowndateDocs(liveRows); err != nil {
				t.Fatal(err)
			}
			sameV(s, ref)
			if s.NumDocs() != 18 || s.Tombstones() != 0 {
				t.Fatalf("physical=%d tombstones=%d after downdate", s.NumDocs(), s.Tombstones())
			}
			for j := 0; j < s.NumDocs(); j++ {
				if s.Doc(j).ID == "M3" {
					t.Fatal("downdated doc survived compaction")
				}
			}
			// The folded-out state still answers queries sensibly.
			ranked := s.RankTop(coll.QueryVector("depressed rats"), 5)
			if len(ranked) != 5 {
				t.Fatalf("got %d results", len(ranked))
			}
		})
	}
}
