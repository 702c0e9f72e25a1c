package engine_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/rank"
)

// TestScreeningSurvivesPipeline pins the mirror lifecycle across the
// update pipeline: the initial snapshot screens, fold-in batches extend
// the mirror along the Extend chain, and the SVD-update compaction —
// which rebuilds the cache from scratch — rebuilds the mirror too. At
// every stage the snapshot's results must be byte-identical to an exact
// engine built fresh from the same document coordinates.
func TestScreeningSurvivesPipeline(t *testing.T) {
	r, coll := testRouter(t, engine.Config{BatchTick: time.Millisecond, CompactThreshold: 1e-9})
	checkParity := func(stage string) {
		s := r.ShardSnapshot(0)
		if !s.Eng.Screening() {
			t.Fatalf("%s: snapshot lost the screening mirror", stage)
		}
		exact := rank.NewEngineExact(s.Model.V)
		for _, query := range []string{"fatty acids glucose", "depressed culture", "rats oestrogen"} {
			qhat := s.Model.ProjectQuery(coll.QueryVector(query))
			for _, k := range []int{1, 5, s.NumDocs()} {
				if got, want := s.Eng.TopK(qhat, k), exact.TopK(qhat, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: query %q k=%d diverges from exact\n got %v\nwant %v",
						stage, query, k, got, want)
				}
			}
		}
	}
	checkParity("initial")
	for i := 0; i < 6; i++ {
		submit(t, r, corpus.Document{Text: fmt.Sprintf("depressed patients fast culture %d", i)})
		checkParity(fmt.Sprintf("after fold-in %d", i))
	}
	waitCompacted(t, r)
	checkParity("after compaction")
	// One more fold-in on top of the compacted base: the rebuilt mirror's
	// Extend chain must also stay coherent.
	submit(t, r, corpus.Document{Text: "glucose in fasting rats"})
	checkParity("after post-compaction fold-in")
}

// TestDisableScreening pins the opt-out: with DisableScreening every
// snapshot — initial, extended, compacted — serves through exact-only
// engines, and Stats/metrics report it.
func TestDisableScreening(t *testing.T) {
	r, _ := testRouter(t, engine.Config{BatchTick: time.Millisecond, CompactThreshold: 1e-9, DisableScreening: true})
	if st := r.Stats(); st.Screening {
		t.Fatal("stats report screening despite the opt-out")
	}
	for i := 0; i < 6; i++ {
		submit(t, r, corpus.Document{Text: fmt.Sprintf("depressed patients fast culture %d", i)})
		if s := r.ShardSnapshot(0); s.Eng.Screening() {
			t.Fatalf("fold-in %d: extended engine grew a mirror", i)
		}
	}
	waitCompacted(t, r)
	if s := r.ShardSnapshot(0); s.Eng.Screening() {
		t.Fatal("compaction rebuilt the cache with a mirror despite the opt-out")
	}
	if st := r.Stats(); st.Screening {
		t.Fatal("stats report screening after compaction despite the opt-out")
	}
}
