package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/rank"
	"repro/internal/shard"
)

// TestIVFLifecycle pins the cluster-index pipeline: the initial snapshot
// is indexed, fold-ins grow the unclustered tail until the size trigger
// lands a background rebuild, compaction carries the index into the new
// coordinates and the placed rows trigger a fresh build — and at every
// stage ranked results stay byte-identical to an exact engine over the
// same coordinates.
func TestIVFLifecycle(t *testing.T) {
	r, coll := testRouter(t, engine.Config{
		BatchTick:        time.Millisecond,
		CompactThreshold: 1e-9,
		IVFMinRows:       1,
		// Any nonzero tail exceeds this, so every fold-in batch triggers a
		// rebuild as soon as the previous one lands.
		IVFRebuildFraction: 0.0001,
	})
	checkParity := func(stage string) {
		s := r.ShardSnapshot(0)
		exact := rank.NewEngineExact(s.Model.V)
		for _, query := range []string{"fatty acids glucose", "depressed culture"} {
			qhat := s.Model.ProjectQuery(coll.QueryVector(query))
			for _, k := range []int{1, 5, s.NumDocs()} {
				if got, want := s.Eng.TopK(qhat, k), exact.TopK(qhat, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: query %q k=%d diverges from exact", stage, query, k)
				}
			}
		}
	}

	st := r.Stats()
	if st.IVFClusters == 0 || st.IVFRebuilds != 1 || st.IVFUnclusteredTail != 0 {
		t.Fatalf("initial snapshot not indexed: %+v", st)
	}
	checkParity("initial")

	for i := 0; i < 5; i++ {
		submit(t, r, corpus.Document{Text: fmt.Sprintf("depressed patients fast culture %d", i)})
		checkParity(fmt.Sprintf("after fold-in %d", i))
	}
	// The size trigger must land a rebuild that swallows the tail. The
	// aggressive CompactThreshold means a concurrent compaction can void
	// the index at any instant, so the indexed state must be part of the
	// predicate — any single poll may catch the window where the rebuilt
	// cache is not yet re-indexed.
	waitStats(t, r, "post-fold-in rebuild", func(st shard.Stats) bool {
		return st.IVFRebuilds >= 2 && st.IVFUnclusteredTail == 0 && st.IVFClusters > 0
	})
	checkParity("after rebuild")

	waitCompacted(t, r)
	// Compaction rotated the coordinates and carried the index over; any
	// follow-up background build must land on the new epoch.
	waitStats(t, r, "post-compaction rebuild", func(st shard.Stats) bool {
		return st.IVFClusters > 0 && st.IVFUnclusteredTail == 0
	})
	checkParity("after compaction rebuild")

	// Cumulative query counters tick on the snapshot read path.
	before := r.Stats().Queries
	s := r.ShardSnapshot(0)
	s.RankTop(coll.QueryVector("glucose in rats"), 3)
	s.RankBatch([][]float64{coll.QueryVector("fatty acids"), coll.QueryVector("culture")}, 2)
	if after := r.Stats().Queries; after != before+3 {
		t.Fatalf("queries counter moved %d → %d; want +3", before, after)
	}
}

// TestDisableIVF pins the opt-outs: DisableIVF keeps every snapshot
// unindexed, and DisableScreening implies it (the index lives on the
// mirror).
func TestDisableIVF(t *testing.T) {
	r, _ := testRouter(t, engine.Config{
		BatchTick:          time.Millisecond,
		DisableIVF:         true,
		IVFMinRows:         1,
		IVFRebuildFraction: 0.0001,
	})
	for i := 0; i < 3; i++ {
		submit(t, r, corpus.Document{Text: fmt.Sprintf("fast rats %d", i)})
	}
	if st := r.Stats(); st.IVFClusters != 0 || st.IVFRebuilds != 0 {
		t.Fatalf("DisableIVF engine grew an index: %+v", st)
	}

	noScreen, _ := testRouter(t, engine.Config{DisableScreening: true, IVFMinRows: 1})
	if st := noScreen.Stats(); st.IVFClusters != 0 || st.IVFRebuilds != 0 || st.MirrorMaxEps != 0 {
		t.Fatalf("DisableScreening engine grew an index or mirror: %+v", st)
	}
}

// TestCompactionCarriesTheIndex: coordinated compactions with fold-ins
// and deletes between them run no k-means. Each one publishes its
// snapshot with the index carried through the remap and re-certified —
// indexed, no unclustered tail — the rows it placed by nearest centroid
// count toward the rebuild budget, and ranked results stay byte-identical
// to an exact engine over the same coordinates.
func TestCompactionCarriesTheIndex(t *testing.T) {
	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 5, Docs: 400, Topics: 6})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 8, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, coll, model, engine.Config{BatchTick: time.Millisecond, IVFMinRows: 1})
	ctx := context.Background()
	start := r.Stats()
	if start.IVFClusters == 0 || start.IVFRebuilds != 1 || start.IVFPlacedRows != 0 {
		t.Fatalf("initial snapshot not indexed by one k-means build: %+v", start)
	}
	const rounds, folds = 4, 6
	for i := 0; i < rounds; i++ {
		var folded []string
		for j := 0; j < folds; j++ {
			folded = append(folded, submit(t, r, corpus.Document{Text: coll.Docs[(31*i+7*j)%coll.Size()].Text}))
		}
		// Two base rows and one folded row die before the compaction.
		for _, id := range []string{coll.Docs[2*i].ID, coll.Docs[2*i+1].ID, folded[0]} {
			if _, err := r.Delete(ctx, id); err != nil {
				t.Fatalf("round %d: delete %q: %v", i, id, err)
			}
		}
		if err := r.Compact(); err != nil {
			t.Fatalf("round %d: compact: %v", i, err)
		}
		st := r.Stats()
		if st.Compactions != int64(i+1) || st.IVFClusters != start.IVFClusters || st.IVFUnclusteredTail != 0 {
			t.Fatalf("round %d: compaction did not publish the carried index: %+v", i, st)
		}
		if st.IVFRebuilds != start.IVFRebuilds {
			t.Fatalf("round %d: %d k-means builds, want %d", i, st.IVFRebuilds, start.IVFRebuilds)
		}
		// The surviving folded rows were the old tail: placed, not clustered.
		if want := int64((i + 1) * (folds - 1)); st.IVFPlacedRows != want {
			t.Fatalf("round %d: %d placed rows, want %d", i, st.IVFPlacedRows, want)
		}
		s := r.ShardSnapshot(0)
		exact := rank.NewEngineExact(s.Model.V)
		for _, q := range synth.Queries {
			qhat := s.Model.ProjectQuery(coll.QueryVector(q.Text))
			for _, k := range []int{1, 10, s.LiveDocs()} {
				got, want := s.Eng.TopKSkip(qhat, k, s.Dead), exact.TopKSkip(qhat, k, s.Dead)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: query %q k=%d diverges from exact", i, q.Text, k)
				}
			}
		}
	}
}
