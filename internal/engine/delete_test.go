package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// rankedIDs maps ranking results to document IDs through the snapshot's
// own document list, so results from engines with different physical row
// layouts can be compared.
func rankedIDs(s *Snapshot, ranked []core.Ranked) []string {
	ids := make([]string, len(ranked))
	for i, r := range ranked {
		ids[i] = s.Doc(r.Doc).ID
	}
	return ids
}

func TestDeleteImmediateInvisibility(t *testing.T) {
	e, coll := testEngine(t, Config{BatchTick: time.Millisecond})
	ctx := context.Background()
	id, err := e.Submit(ctx, corpus.Document{Text: "behavior of rats after detected rise in oestrogen"})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	if err := e.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(ctx, "M3"); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.Gen <= before.Gen {
		t.Fatalf("pure-delete batches did not advance the generation: %d -> %d", before.Gen, s.Gen)
	}
	// The rows stay physically present until a compaction folds them out.
	if s.NumDocs() != 15 || s.Tombstones() != 2 || s.LiveDocs() != 13 {
		t.Fatalf("physical=%d tombstones=%d live=%d", s.NumDocs(), s.Tombstones(), s.LiveDocs())
	}
	st := e.Stats()
	if st.Documents != 13 || st.Tombstones != 2 {
		t.Fatalf("stats: documents=%d tombstones=%d", st.Documents, st.Tombstones)
	}
	// Even a query aimed straight at the deleted documents' own words must
	// never surface them, at any depth.
	for _, q := range []string{"rats oestrogen rise", "blood pressure", corpus.MEDQuery} {
		for _, got := range rankedIDs(s, s.RankTop(coll.QueryVector(q), s.NumDocs())) {
			if got == id || got == "M3" {
				t.Fatalf("query %q surfaced deleted doc %s", q, got)
			}
		}
	}
	// The pre-delete snapshot is immutable: readers holding it still see
	// the document.
	if before.Tombstones() != 0 {
		t.Fatal("published snapshot was mutated by a later delete")
	}
}

// TestDeleteSurvivesIVFRebuild: a background cluster-index build that
// lands after a delete republishes the snapshot; the tombstones must
// ride along, or the deleted document resurfaces until the next batch.
func TestDeleteSurvivesIVFRebuild(t *testing.T) {
	e, coll := testEngine(t, Config{BatchTick: time.Millisecond, IVFMinRows: 1, IVFRebuildFraction: 0.0001})
	ctx := context.Background()
	if err := e.Delete(ctx, "M3"); err != nil {
		t.Fatal(err)
	}
	// Any fold-in leaves an unclustered tail past the rebuild fraction.
	if _, err := e.Submit(ctx, corpus.Document{Text: "depressed patients fast culture"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().IVFRebuilds < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild landed: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	s := e.Snapshot()
	if s.Tombstones() != 1 {
		t.Fatalf("%d tombstones after the rebuild landed, want 1", s.Tombstones())
	}
	for _, id := range rankedIDs(s, s.RankTop(coll.QueryVector("blood pressure"), s.NumDocs())) {
		if id == "M3" {
			t.Fatal("deleted document resurfaced after the IVF rebuild")
		}
	}
}

func TestDeleteUnknownID(t *testing.T) {
	e, _ := testEngine(t, Config{BatchTick: time.Millisecond})
	ctx := context.Background()
	if err := e.Delete(ctx, "never-existed"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown delete: err=%v want ErrUnknownID", err)
	}
	if err := e.Delete(ctx, "M5"); err != nil {
		t.Fatal(err)
	}
	// A second delete of the same ID is unknown too — the ID was released.
	if err := e.Delete(ctx, "M5"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double delete: err=%v want ErrUnknownID", err)
	}
}

// TestDeleteMatchesNeverInserted pins the tombstone phase: an engine that
// folded extra documents and then deleted some must answer queries
// byte-identically to an engine that never saw the deleted documents —
// same IDs, bit-equal scores.
func TestDeleteMatchesNeverInserted(t *testing.T) {
	extra := []corpus.Document{
		{ID: "K1", Text: "behavior of rats after detected rise in oestrogen"},
		{ID: "D1", Text: "fast generation of random close packing of spheres"},
		{ID: "K2", Text: "depressed patients who feel the pressure to fast"},
		{ID: "D2", Text: "glucose levels in blood of depressed rats"},
	}
	ctx := context.Background()

	a, coll := testEngine(t, Config{BatchTick: time.Millisecond})
	for _, d := range extra {
		if _, err := a.Submit(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"D1", "D2"} {
		if err := a.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	b, _ := testEngine(t, Config{BatchTick: time.Millisecond})
	for _, d := range extra {
		if d.ID == "D1" || d.ID == "D2" {
			continue
		}
		if _, err := b.Submit(ctx, d); err != nil {
			t.Fatal(err)
		}
	}

	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.LiveDocs() != sb.NumDocs() {
		t.Fatalf("live mismatch: %d vs %d", sa.LiveDocs(), sb.NumDocs())
	}
	queries := []string{
		corpus.MEDQuery,
		"rats oestrogen rise",
		"depressed patients fast",
		"glucose blood levels",
		"random packing spheres",
	}
	for _, q := range queries {
		raw := coll.QueryVector(q)
		ra := sa.RankTop(raw, sa.LiveDocs())
		rb := sb.RankTop(raw, sb.NumDocs())
		if len(ra) != len(rb) {
			t.Fatalf("query %q: %d vs %d results", q, len(ra), len(rb))
		}
		ia, ib := rankedIDs(sa, ra), rankedIDs(sb, rb)
		for i := range ra {
			if ia[i] != ib[i] {
				t.Fatalf("query %q rank %d: tombstoned %s != never-inserted %s", q, i, ia[i], ib[i])
			}
			if math.Float64bits(ra[i].Score) != math.Float64bits(rb[i].Score) {
				t.Fatalf("query %q rank %d (%s): score %v != %v", q, i, ia[i], ra[i].Score, rb[i].Score)
			}
		}
	}
}

// TestDeleteThenResubmit: deleting releases the ID, so the same ID can be
// submitted again as a fresh document — and deleted again.
func TestDeleteThenResubmit(t *testing.T) {
	e, coll := testEngine(t, Config{BatchTick: time.Millisecond})
	ctx := context.Background()
	if _, err := e.Submit(ctx, corpus.Document{ID: "X1", Text: "fast rise in blood pressure"}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(ctx, "X1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(ctx, corpus.Document{ID: "X1", Text: "generation of random spheres"}); err != nil {
		t.Fatalf("resubmit after delete: %v", err)
	}
	s := e.Snapshot()
	// Two physical rows carry the ID's history; only the second is live.
	if s.NumDocs() != 16 || s.Tombstones() != 1 {
		t.Fatalf("physical=%d tombstones=%d", s.NumDocs(), s.Tombstones())
	}
	found := false
	for _, id := range rankedIDs(s, s.RankTop(coll.QueryVector("generation random spheres"), 5)) {
		found = found || id == "X1"
	}
	if !found {
		t.Fatal("resubmitted document not retrievable")
	}
	if err := e.Delete(ctx, "X1"); err != nil {
		t.Fatalf("delete of resubmitted doc: %v", err)
	}
}

// TestSameBatchSubmitAndDelete: a submit and a delete of the same ID in
// one batch resolve in queue order — the eager row assignment lets the
// delete find the row the submit just claimed.
func TestSameBatchSubmitAndDelete(t *testing.T) {
	e, coll := testEngine(t, Config{QueueSize: 16, BatchTick: time.Hour})
	if _, err := e.Submit(expiredCtx(t), corpus.Document{ID: "Z1", Text: "oestrogen levels in rats"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued submit: %v", err)
	}
	if err := e.Delete(expiredCtx(t), "Z1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued delete: %v", err)
	}
	if _, err := e.Submit(expiredCtx(t), corpus.Document{ID: "Z2", Text: "glucose in blood"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued submit: %v", err)
	}
	// Close's final drain applies the whole batch.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.NumDocs() != 16 || s.Tombstones() != 1 || s.LiveDocs() != 15 {
		t.Fatalf("physical=%d tombstones=%d live=%d", s.NumDocs(), s.Tombstones(), s.LiveDocs())
	}
	for _, id := range rankedIDs(s, s.RankTop(coll.QueryVector("oestrogen rats"), s.NumDocs())) {
		if id == "Z1" {
			t.Fatal("same-batch deleted doc is retrievable")
		}
	}
	found := false
	for j := 0; j < s.NumDocs(); j++ {
		found = found || s.Doc(j).ID == "Z2"
	}
	if !found {
		t.Fatal("drained submit lost")
	}
}
