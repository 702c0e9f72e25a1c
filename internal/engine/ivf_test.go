package engine_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/rank"
	"repro/internal/shard"
)

// TestIVFLifecycle pins the cluster-index pipeline: the initial snapshot
// is indexed, fold-ins grow the unclustered tail until the size trigger
// lands a background rebuild, compaction invalidates the index and a
// fresh build follows — and at every stage ranked results stay
// byte-identical to an exact engine over the same coordinates.
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
	// Compaction rotated the coordinates: the rebuilt cache starts
	// unindexed and the follow-up background build must land on the new
	// epoch.
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
