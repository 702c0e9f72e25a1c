package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

func testEngine(t *testing.T, cfg Config) (*Engine, *corpus.Collection) {
	t.Helper()
	coll := corpus.MED()
	model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(coll, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return e, coll
}

// expiredCtx returns a context whose deadline has already passed: Submit
// still enqueues the document but returns without waiting for the batch.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestFoldPublishesNewGeneration(t *testing.T) {
	e, coll := testEngine(t, Config{BatchTick: time.Millisecond})
	before := e.Snapshot()
	id, err := e.Submit(context.Background(), corpus.Document{Text: "behavior of rats after rise in oestrogen"})
	if err != nil {
		t.Fatal(err)
	}
	if id != "doc-14" {
		t.Fatalf("auto id %q", id)
	}
	after := e.Snapshot()
	if after.Gen <= before.Gen {
		t.Fatalf("generation did not advance: %d -> %d", before.Gen, after.Gen)
	}
	if after.NumDocs() != before.NumDocs()+1 || after.Model.NumDocs() != after.NumDocs() ||
		after.Eng.NumDocs() != after.NumDocs() {
		t.Fatalf("snapshot invariant broken: docs=%d model=%d eng=%d",
			after.NumDocs(), after.Model.NumDocs(), after.Eng.NumDocs())
	}
	// The old snapshot is untouched — readers holding it keep a stable view.
	if before.NumDocs() != 14 || before.Model.NumDocs() != 14 {
		t.Fatal("published snapshot was mutated")
	}
	// The folded document ranks for its own words.
	ranked := after.RankTop(coll.QueryVector("rats oestrogen"), 5)
	found := false
	for _, r := range ranked {
		if after.Doc(r.Doc).ID == id {
			found = true
		}
	}
	if !found {
		t.Fatal("folded document not retrievable")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	e, _ := testEngine(t, Config{BatchTick: time.Millisecond})
	ctx := context.Background()
	if _, err := e.Submit(ctx, corpus.Document{ID: "X1", Text: "fast rise in blood pressure"}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Submit(ctx, corpus.Document{ID: "X1", Text: "another doc"})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("second submit: err=%v want ErrDuplicateID", err)
	}
	// Colliding with an initial collection ID is rejected too.
	if _, err := e.Submit(ctx, corpus.Document{ID: "M3", Text: "dup of a seed doc"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("seed-id submit: err=%v", err)
	}
	if n := e.Snapshot().NumDocs(); n != 15 {
		t.Fatalf("duplicates folded: %d docs", n)
	}
}

// TestAutoIDSkipsTakenIDs pins the regression from the old server, where
// the auto-generated doc-%d could collide with a user-supplied ID.
func TestAutoIDSkipsTakenIDs(t *testing.T) {
	e, _ := testEngine(t, Config{BatchTick: time.Millisecond})
	ctx := context.Background()
	// Take the ID the auto-assigner would hand out next (14 seed docs).
	if _, err := e.Submit(ctx, corpus.Document{ID: "doc-14", Text: "squatter on the next auto id"}); err != nil {
		t.Fatal(err)
	}
	id, err := e.Submit(ctx, corpus.Document{Text: "auto id document"})
	if err != nil {
		t.Fatal(err)
	}
	if id == "doc-14" {
		t.Fatal("auto id collided with user-supplied id")
	}
	if id != "doc-15" {
		t.Fatalf("auto id %q want doc-15", id)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	e, _ := testEngine(t, Config{QueueSize: 2, BatchTick: time.Hour})
	// The updater only drains at ticks (an hour away), so these sit in the
	// queue; expired contexts make the calls return immediately.
	for i := 0; i < 2; i++ {
		_, err := e.Submit(expiredCtx(t), corpus.Document{Text: fmt.Sprintf("queued doc %d", i)})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("submit %d: err=%v want context.Canceled", i, err)
		}
	}
	if _, err := e.Submit(context.Background(), corpus.Document{Text: "overflow"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err=%v want ErrQueueFull", err)
	}
	if d := e.Stats().QueueDepth; d != 2 {
		t.Fatalf("queue depth %d want 2", d)
	}
}

// TestCloseDrainsQueue: every accepted submission is folded in before
// Close returns, even though the batch tick never fired.
func TestCloseDrainsQueue(t *testing.T) {
	e, _ := testEngine(t, Config{QueueSize: 16, BatchTick: time.Hour})
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := e.Submit(expiredCtx(t), corpus.Document{Text: fmt.Sprintf("queued doc %d", i)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().NumDocs(); got != 14+n {
		t.Fatalf("after drain: %d docs want %d", got, 14+n)
	}
	if _, err := e.Submit(context.Background(), corpus.Document{Text: "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err=%v want ErrClosed", err)
	}
}

// TestQuiescentRepeatIsByteStable: two identical queries against the same
// snapshot generation return identical results.
func TestQuiescentRepeatIsByteStable(t *testing.T) {
	e, coll := testEngine(t, Config{})
	raw := coll.QueryVector("age blood abnormalities culture")
	s := e.Snapshot()
	a := s.RankTop(raw, 10)
	b := s.RankTop(raw, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-snapshot results diverged")
	}
	// And they match the model's own lock-guarded scoring path exactly —
	// the snapshot cache is the same normalized matrix.
	c := s.Model.RankTop(raw, 10)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("snapshot results diverge from core.Model.RankTop")
	}
}

func TestNewRejectsMismatchedModel(t *testing.T) {
	coll := corpus.MED()
	model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	model.FoldInDocs(coll.DocVectors(corpus.MEDUpdateTopics))
	if _, err := New(coll, model, Config{}); err == nil {
		t.Fatal("expected mismatch error")
	}
}
