package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
)

func synthFixture(t *testing.T, docs, k int) (*corpus.Collection, *core.Model, [][]float64) {
	t.Helper()
	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 9, Docs: docs, Topics: 5})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: k, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	raws := make([][]float64, 0, len(synth.Queries))
	for _, q := range synth.Queries {
		raws = append(raws, coll.QueryVector(q.Text))
	}
	if len(raws) < 4 {
		t.Fatalf("fixture produced only %d queries", len(raws))
	}
	return coll, model, raws
}

func closeRouter(t testing.TB, r *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("router close: %v", err)
	}
}

// sameHits compares merged results byte-for-byte on everything placement
// cannot change: identity, text and the exact score bits. Shard indices
// legitimately differ between layouts.
func sameHits(t testing.TB, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Text != want[i].Text ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: hit %d: got {%s %v}, want {%s %v}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// TestRouterSearchParity pins the tentpole claim on the static corpus:
// for every shard count, scatter–gather results are byte-identical to a
// plain single engine over the same collection, for both single and
// batch queries.
func TestRouterSearchParity(t *testing.T) {
	coll, model, raws := synthFixture(t, 60, 8)
	ref, err := engine.New(coll, model, engine.Config{BatchTick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ref.Close(ctx)
	}()
	const topK = 10
	want := make([][]Hit, len(raws))
	snap := ref.Snapshot()
	for qi, raw := range raws {
		ranked := snap.RankTop(raw, topK)
		want[qi] = make([]Hit, len(ranked))
		for i, rk := range ranked {
			d := snap.Doc(rk.Doc)
			want[qi][i] = Hit{ID: d.ID, Text: d.Text, Score: rk.Score}
		}
		if len(want[qi]) == 0 {
			t.Fatalf("query %d ranked nothing", qi)
		}
	}

	for _, shards := range []int{1, 2, 3, 5} {
		r, err := New(coll, model, Config{Shards: shards, Engine: engine.Config{BatchTick: time.Millisecond}})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		for qi, raw := range raws {
			got, gens := r.Search(raw, topK)
			if len(gens) != shards {
				t.Fatalf("%d shards: generation vector has %d entries", shards, len(gens))
			}
			sameHits(t, fmt.Sprintf("%d shards, query %d", shards, qi), got, want[qi])
		}
		batch, _ := r.SearchBatch(raws, topK)
		if len(batch) != len(raws) {
			t.Fatalf("%d shards: batch returned %d rows", shards, len(batch))
		}
		for qi := range raws {
			sameHits(t, fmt.Sprintf("%d shards, batch row %d", shards, qi), batch[qi], want[qi])
		}
		closeRouter(t, r)
	}
}

// TestRouterParityAcrossSubmitsAndCompaction drives two routers — one
// shard vs three — through identical submission sequences and two
// coordinated compaction cycles, checking byte parity after every step.
// The 1-shard side is anchored to ground truth by
// TestOneShardCompactMatchesLibraryPath (Router.Compact ≡ DowndateDocs +
// UpdateDocsOpts, bit for bit); this test closes the loop N-shard ≡
// 1-shard.
func TestRouterParityAcrossSubmitsAndCompaction(t *testing.T) {
	coll, model, raws := synthFixture(t, 40, 6)
	mk := func(shards int) *Router {
		r, err := New(coll, model, Config{Shards: shards, Engine: engine.Config{BatchTick: time.Millisecond}})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		return r
	}
	r1, r3 := mk(1), mk(3)
	defer closeRouter(t, r1)
	defer closeRouter(t, r3)

	const topK = 15
	check := func(stage string) {
		t.Helper()
		for qi, raw := range raws {
			h1, _ := r1.Search(raw, topK)
			h3, _ := r3.Search(raw, topK)
			sameHits(t, fmt.Sprintf("%s query %d", stage, qi), h3, h1)
		}
		b1, _ := r1.SearchBatch(raws, topK)
		b3, _ := r3.SearchBatch(raws, topK)
		for qi := range raws {
			sameHits(t, fmt.Sprintf("%s batch row %d", stage, qi), b3[qi], b1[qi])
		}
	}

	check("static")
	ctx := context.Background()
	next := 0
	for wave := 0; wave < 2; wave++ {
		for i := 0; i < 6; i++ {
			doc := corpus.Document{
				ID:   fmt.Sprintf("new-%02d", next),
				Text: coll.Docs[next%coll.Size()].Text,
			}
			next++
			if _, _, err := r1.Submit(ctx, doc); err != nil {
				t.Fatalf("wave %d: r1 submit: %v", wave, err)
			}
			if _, _, err := r3.Submit(ctx, doc); err != nil {
				t.Fatalf("wave %d: r3 submit: %v", wave, err)
			}
		}
		check(fmt.Sprintf("wave %d folded", wave))
		if st := r3.Stats(); st.FoldedDocuments == 0 {
			t.Fatalf("wave %d: no folded documents before compaction", wave)
		}
		if err := r1.Compact(); err != nil {
			t.Fatalf("wave %d: r1 compact: %v", wave, err)
		}
		if err := r3.Compact(); err != nil {
			t.Fatalf("wave %d: r3 compact: %v", wave, err)
		}
		for _, r := range []*Router{r1, r3} {
			st := r.Stats()
			if st.FoldedDocuments != 0 {
				t.Fatalf("wave %d: %d shards: %d folded after compaction", wave, st.Shards, st.FoldedDocuments)
			}
			if st.Compactions != int64(wave+1) {
				t.Fatalf("wave %d: %d shards: %d compactions", wave, st.Shards, st.Compactions)
			}
			if st.Documents != coll.Size()+next {
				t.Fatalf("wave %d: %d shards: %d documents, want %d", wave, st.Shards, st.Documents, coll.Size()+next)
			}
		}
		check(fmt.Sprintf("wave %d compacted", wave))
	}
	// An empty compaction cycle is a no-op, not an error or a count bump.
	if err := r3.Compact(); err != nil {
		t.Fatalf("empty compact: %v", err)
	}
	if st := r3.Stats(); st.Compactions != 2 {
		t.Fatalf("empty compact bumped count to %d", st.Compactions)
	}
}

// TestRouterIDRegistry: duplicate user IDs are rejected globally (409 on
// any shard, including against the seed corpus), auto IDs are globally
// unique, round-robin placed, and skip over user-taken names.
func TestRouterIDRegistry(t *testing.T) {
	coll, model, _ := synthFixture(t, 40, 6)
	r, err := New(coll, model, Config{Shards: 3, Engine: engine.Config{BatchTick: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, r)
	ctx := context.Background()
	text := coll.Docs[0].Text

	if _, _, err := r.Submit(ctx, corpus.Document{ID: "alpha", Text: text}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Submit(ctx, corpus.Document{ID: "alpha", Text: text}); !errors.Is(err, engine.ErrDuplicateID) {
		t.Fatalf("duplicate user id: %v", err)
	}
	if _, _, err := r.Submit(ctx, corpus.Document{ID: coll.Docs[7].ID, Text: text}); !errors.Is(err, engine.ErrDuplicateID) {
		t.Fatalf("duplicate seed id: %v", err)
	}

	// Take the next auto name by hand; auto assignment must skip it.
	taken := fmt.Sprintf("doc-%d", coll.Size())
	if _, _, err := r.Submit(ctx, corpus.Document{ID: taken, Text: text}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 9; i++ {
		id, shard, err := r.Submit(ctx, corpus.Document{Text: text})
		if err != nil {
			t.Fatalf("auto submit %d: %v", i, err)
		}
		if id == "" || id == taken || seen[id] {
			t.Fatalf("auto submit %d: id %q reused or empty", i, id)
		}
		seen[id] = true
		if want := i % 3; shard != want {
			t.Fatalf("auto submit %d landed on shard %d, want round-robin %d", i, shard, want)
		}
	}
}

// TestRouterPerShardQueueFull: backpressure is per owner shard — a full
// queue on one shard rejects with that shard's depth/capacity while the
// others keep accepting.
func TestRouterPerShardQueueFull(t *testing.T) {
	coll, model, _ := synthFixture(t, 40, 6)
	// BatchTick a minute: the queues never drain during the test.
	r, err := New(coll, model, Config{Shards: 2, Engine: engine.Config{QueueSize: 2, BatchTick: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, r)

	// Mine IDs that hash to each shard so placement is forced.
	idOn := func(shard int) func() string {
		n := 0
		return func() string {
			for {
				id := fmt.Sprintf("qf-%d-%d", shard, n)
				n++
				if hashShard(id, 2) == shard {
					return id
				}
			}
		}
	}
	on0, on1 := idOn(0), idOn(1)
	expired, cancel := context.WithCancel(context.Background())
	cancel() // fire-and-forget: enqueue, don't wait for the fold
	text := coll.Docs[0].Text

	for i := 0; i < 2; i++ {
		if _, _, err := r.Submit(expired, corpus.Document{ID: on0(), Text: text}); !errors.Is(err, context.Canceled) {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	full := on0()
	_, _, err = r.Submit(expired, corpus.Document{ID: full, Text: text})
	var qf *QueueFullError
	if !errors.As(err, &qf) || !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("overflow submit: %v", err)
	}
	if qf.Shard != 0 || qf.Capacity != 2 || qf.Depth != 2 {
		t.Fatalf("queue-full detail: %+v", qf)
	}
	// The other shard is unaffected.
	if _, _, err := r.Submit(expired, corpus.Document{ID: on1(), Text: text}); !errors.Is(err, context.Canceled) {
		t.Fatalf("other shard rejected: %v", err)
	}
	// The rejected ID was rolled back in the registry: retrying reports
	// queue-full again, not a duplicate.
	if _, _, err := r.Submit(expired, corpus.Document{ID: full, Text: text}); !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("retry after rollback: %v", err)
	}
}

// TestRouterMonitorCompacts: the background monitor notices global
// orthogonality drift and runs a coordinated compaction on its own.
func TestRouterMonitorCompacts(t *testing.T) {
	coll, model, raws := synthFixture(t, 40, 6)
	r, err := New(coll, model, Config{
		Shards:       2,
		Engine:       engine.Config{BatchTick: time.Millisecond, CompactThreshold: 1e-9},
		CompactCheck: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, r)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, _, err := r.Submit(ctx, corpus.Document{Text: coll.Docs[i].Text}); err != nil {
			t.Fatal(err)
		}
	}
	waitRouter(t, r, "the monitor to compact", func(st Stats) bool {
		return st.Compactions >= 1 && st.FoldedDocuments == 0
	})
	if hits, _ := r.Search(raws[0], 5); len(hits) == 0 {
		t.Fatal("no hits after monitor compaction")
	}
}

// TestRouterMonitorIdleEvaluatesOnce: below the threshold an idle tier's
// loss cannot change, so across well over 50 idle monitor ticks the
// global Gram is evaluated once — not once per tick.
func TestRouterMonitorIdleEvaluatesOnce(t *testing.T) {
	coll, model, _ := synthFixture(t, 360, 8)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r, err := New(coll, model, Config{
				Shards:       shards,
				Engine:       engine.Config{BatchTick: time.Millisecond, CompactThreshold: 0.05},
				CompactCheck: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer closeRouter(t, r)
			if _, _, err := r.Submit(context.Background(), corpus.Document{ID: "folded", Text: coll.Docs[0].Text}); err != nil {
				t.Fatal(err)
			}
			if loss := r.Orthogonality(); loss <= 0 || loss > 0.05 {
				t.Fatalf("fixture: one fold-in gives loss %v, want it in (0, 0.05]", loss)
			}
			// The first tick after the fold-in evaluates; the next ≈ 150
			// ticks of 1 ms see the same generation vector.
			waitRouter(t, r, "the monitor's first evaluation", func(Stats) bool { return r.monitorEvals.Load() >= 1 })
			time.Sleep(150 * time.Millisecond)
			if n := r.monitorEvals.Load(); n != 1 {
				t.Fatalf("monitor evaluated the loss %d times over an idle stretch, want 1", n)
			}
			if st := r.Stats(); st.Compactions != 0 || st.FoldedDocuments != 1 {
				t.Fatalf("idle tier changed: %d compactions, %d folded", st.Compactions, st.FoldedDocuments)
			}
		})
	}
}

// waitRouter spins until pred accepts the router's stats.
func waitRouter(t *testing.T, r *Router, what string, pred func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //lsilint:ignore walltime test deadline
	for !pred(r.Stats()) {
		if time.Now().After(deadline) { //lsilint:ignore walltime test deadline
			t.Fatalf("timed out waiting for %s: %+v", what, r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineThresholdIsTheMonitorKnob pins the one-knob contract:
// Engine.CompactThreshold — the field lsiserver's -compact-threshold
// sets and the only compaction setting a caller passing
// Config{Engine: cfg} can give — starts the monitor on both
// construction paths, and zero leaves compaction to explicit Compact
// calls.
func TestEngineThresholdIsTheMonitorKnob(t *testing.T) {
	coll, model, _ := synthFixture(t, 40, 6)
	ctx := context.Background()
	fold := func(r *Router, tag string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			doc := corpus.Document{ID: fmt.Sprintf("%s-%d", tag, i), Text: coll.Docs[i].Text}
			if _, _, err := r.Submit(ctx, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	compacted := func(st Stats) bool { return st.Compactions >= 1 && st.FoldedDocuments == 0 }
	on := engine.Config{BatchTick: time.Millisecond, CompactThreshold: 1e-9}

	built, err := New(coll, model, Config{Engine: on})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, built)
	fold(built, "built")
	waitRouter(t, built, "New's monitor to compact", compacted)

	path := filepath.Join(t.TempDir(), "tier.lsnp")
	if err := built.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, f, err := Restore(path, Config{Engine: on}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer closeRouter(t, restored)
	fold(restored, "restored")
	waitRouter(t, restored, "Restore's monitor to compact", compacted)

	off, f2, err := Restore(path, Config{Engine: engine.Config{BatchTick: time.Millisecond}}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	defer closeRouter(t, off)
	if off.monitorStop != nil {
		t.Fatal("threshold 0 started a monitor")
	}
	fold(off, "off")
	if st := off.Stats(); st.Compactions != 0 || st.FoldedDocuments != 3 {
		t.Fatalf("without a monitor: %+v", st)
	}
	if err := off.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats(); !compacted(st) {
		t.Fatalf("explicit Compact: %+v", st)
	}
}

// TestOneShardCompactMatchesLibraryPath anchors the single-engine
// configuration to ground truth: after a scripted submit/delete sequence
// and one Router.Compact, shard 0's factors are bit-identical to the
// library path on a clone of the base — DowndateDocs over the live rows,
// then UpdateDocsOpts over the live pending documents — under both
// update strategies.
func TestOneShardCompactMatchesLibraryPath(t *testing.T) {
	for _, strategy := range []core.UpdateStrategy{core.StrategyOBrien, core.StrategyGK} {
		t.Run(strategy.String(), func(t *testing.T) {
			coll, model, _ := synthFixture(t, 40, 6)
			want := model.SharedClone()
			r, err := New(coll, model, Config{Engine: engine.Config{
				BatchTick: time.Millisecond, CompactionStrategy: strategy}})
			if err != nil {
				t.Fatal(err)
			}
			defer closeRouter(t, r)
			ctx := context.Background()
			var pending []corpus.Document
			for i := 0; i < 5; i++ {
				doc := corpus.Document{ID: fmt.Sprintf("new-%d", i), Text: coll.Docs[3*i+1].Text}
				if _, _, err := r.Submit(ctx, doc); err != nil {
					t.Fatal(err)
				}
				if i != 2 {
					pending = append(pending, doc)
				}
			}
			const deadBase = 7
			for _, id := range []string{"new-2", coll.Docs[deadBase].ID} {
				if _, err := r.Delete(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Compact(); err != nil {
				t.Fatal(err)
			}

			var live []int
			for j := 0; j < coll.Size(); j++ {
				if j != deadBase {
					live = append(live, j)
				}
			}
			if err := want.DowndateDocs(live); err != nil {
				t.Fatal(err)
			}
			if err := want.UpdateDocsOpts(coll.DocVectors(pending), core.UpdateOptions{Strategy: strategy}); err != nil {
				t.Fatal(err)
			}
			got := r.ShardSnapshot(0).Model
			if got.NumDocs() != want.NumDocs() || got.FoldedDocs() != 0 {
				t.Fatalf("router model %d docs (%d folded), library %d", got.NumDocs(), got.FoldedDocs(), want.NumDocs())
			}
			for name, pair := range map[string][2][]float64{
				"U": {got.U.Data, want.U.Data}, "S": {got.S, want.S}, "V": {got.V.Data, want.V.Data},
			} {
				if len(pair[0]) != len(pair[1]) {
					t.Fatalf("%s: %d values, library %d", name, len(pair[0]), len(pair[1]))
				}
				for i := range pair[0] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("%s[%d]: router %v != library %v", name, i, pair[0][i], pair[1][i])
					}
				}
			}
		})
	}
}

// TestRouterCloseDrains: Close publishes every acknowledged document —
// including fire-and-forget submissions still queued — before returning,
// and further submits report closed.
func TestRouterCloseDrains(t *testing.T) {
	coll, model, _ := synthFixture(t, 40, 6)
	r, err := New(coll, model, Config{Shards: 3, Engine: engine.Config{BatchTick: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	const extra = 9
	for i := 0; i < extra; i++ {
		_, _, err := r.Submit(expired, corpus.Document{ID: fmt.Sprintf("drain-%d", i), Text: coll.Docs[i].Text})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	closeRouter(t, r)
	if st := r.Stats(); st.Documents != coll.Size()+extra {
		t.Fatalf("after drain: %d documents, want %d", st.Documents, coll.Size()+extra)
	}
	if _, _, err := r.Submit(context.Background(), corpus.Document{Text: "late"}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	closeRouter(t, r) // idempotent
}

// TestRouterDeleteReleasesIDs pins the registry fix: deletion routes to
// the owner shard and releases the ID, so re-submission after delete is
// accepted — in both orders (submit→409→delete→201 and delete-unknown→
// submit→201) — for user IDs, auto IDs, and seed-corpus IDs alike.
func TestRouterDeleteReleasesIDs(t *testing.T) {
	coll, model, raws := synthFixture(t, 40, 6)
	r, err := New(coll, model, Config{Shards: 3, Engine: engine.Config{BatchTick: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, r)
	ctx := context.Background()
	text := coll.Docs[0].Text

	// Order A: submit, duplicate rejected, delete, resubmit accepted.
	_, submitShard, err := r.Submit(ctx, corpus.Document{ID: "alpha", Text: text})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Submit(ctx, corpus.Document{ID: "alpha", Text: text}); !errors.Is(err, engine.ErrDuplicateID) {
		t.Fatalf("duplicate before delete: %v", err)
	}
	delShard, err := r.Delete(ctx, "alpha")
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if delShard != submitShard {
		t.Fatalf("delete routed to shard %d, owner is %d", delShard, submitShard)
	}
	if _, _, err := r.Submit(ctx, corpus.Document{ID: "alpha", Text: text}); err != nil {
		t.Fatalf("resubmit after delete: %v", err)
	}

	// Order B: deleting a never-submitted ID is unknown; the probe must
	// not block the subsequent submit.
	if _, err := r.Delete(ctx, "beta"); !errors.Is(err, engine.ErrUnknownID) {
		t.Fatalf("delete of unknown id: %v", err)
	}
	if _, _, err := r.Submit(ctx, corpus.Document{ID: "beta", Text: text}); err != nil {
		t.Fatalf("submit after unknown delete: %v", err)
	}

	// Auto IDs resolve to their round-robin owner, not a hash.
	autoID, autoShard, err := r.Submit(ctx, corpus.Document{Text: text})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := r.Delete(ctx, autoID); err != nil || s != autoShard {
		t.Fatalf("auto-id delete: shard %d err %v, owner is %d", s, err, autoShard)
	}
	if _, err := r.Delete(ctx, autoID); !errors.Is(err, engine.ErrUnknownID) {
		t.Fatalf("double delete: %v", err)
	}

	// Seed-corpus documents are deletable too, and vanish from results
	// immediately.
	seedID := coll.Docs[3].ID
	if _, err := r.Delete(ctx, seedID); err != nil {
		t.Fatalf("seed delete: %v", err)
	}
	hits, _ := r.Search(raws[0], coll.Size())
	for _, h := range hits {
		if h.ID == seedID || h.ID == autoID {
			t.Fatalf("deleted doc %s still retrievable", h.ID)
		}
	}
	// alpha's first (pre-re-add) row, the auto doc, and the seed doc are
	// dead; beta and alpha's second row are live.
	if st := r.Stats(); st.Tombstones != 3 {
		t.Fatalf("tombstones %d want 3", st.Tombstones)
	}
}

// TestRouterDeleteParityAcrossShardCounts extends the N-shard ≡ 1-shard
// pin to the deletion lifecycle: identical submit/delete scripts on a
// 1-shard and a 3-shard router stay byte-identical through the tombstone
// phase, through coordinated compactions that fold the dead rows out
// (pending absorption and the pure-downdate cycle both), and through
// re-adds of deleted IDs. The 1-shard side is anchored to a never-
// inserted engine by the engine-level delete suite, closing the loop.
func TestRouterDeleteParityAcrossShardCounts(t *testing.T) {
	coll, model, raws := synthFixture(t, 40, 6)
	mk := func(shards int) *Router {
		r, err := New(coll, model, Config{Shards: shards, Engine: engine.Config{BatchTick: time.Millisecond}})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		return r
	}
	r1, r3 := mk(1), mk(3)
	defer closeRouter(t, r1)
	defer closeRouter(t, r3)
	both := []*Router{r1, r3}

	const topK = 20
	check := func(stage string) {
		t.Helper()
		for qi, raw := range raws {
			h1, _ := r1.Search(raw, topK)
			h3, _ := r3.Search(raw, topK)
			sameHits(t, fmt.Sprintf("%s query %d", stage, qi), h3, h1)
		}
	}
	ctx := context.Background()
	submitBoth := func(id, text string) {
		t.Helper()
		for _, r := range both {
			if _, _, err := r.Submit(ctx, corpus.Document{ID: id, Text: text}); err != nil {
				t.Fatalf("submit %s: %v", id, err)
			}
		}
	}
	deleteBoth := func(id string) {
		t.Helper()
		for _, r := range both {
			if _, err := r.Delete(ctx, id); err != nil {
				t.Fatalf("delete %s: %v", id, err)
			}
		}
	}
	compactBoth := func(stage string, wantTomb int) {
		t.Helper()
		for _, r := range both {
			if err := r.Compact(); err != nil {
				t.Fatalf("%s compact: %v", stage, err)
			}
			st := r.Stats()
			if st.FoldedDocuments != 0 || st.Tombstones != wantTomb {
				t.Fatalf("%s: %d shards: folded=%d tombstones=%d (want 0/%d)",
					stage, st.Shards, st.FoldedDocuments, st.Tombstones, wantTomb)
			}
		}
	}

	// Wave 1: fold in six, tombstone two of them plus two seed docs.
	for i := 0; i < 6; i++ {
		submitBoth(fmt.Sprintf("new-%02d", i), coll.Docs[i].Text)
	}
	for _, id := range []string{"new-01", "new-04", coll.Docs[2].ID, coll.Docs[17].ID} {
		deleteBoth(id)
	}
	if st := r3.Stats(); st.Tombstones != 4 || st.Documents != coll.Size()+6-4 {
		t.Fatalf("tombstone phase: %+v", st)
	}
	check("tombstoned")
	compactBoth("wave 1", 0)
	check("wave 1 compacted")
	for _, r := range both {
		if st := r.Stats(); st.Documents != coll.Size()+2 {
			t.Fatalf("wave 1: %d shards: %d documents want %d", st.Shards, st.Documents, coll.Size()+2)
		}
	}

	// Wave 2: re-add a deleted ID (must be accepted on every layout),
	// then a pure-downdate cycle: no pending, only tombstones.
	submitBoth("new-01", coll.Docs[9].Text)
	check("re-added")
	compactBoth("wave 2", 0)
	deleteBoth(coll.Docs[11].ID)
	check("post-compaction tombstone")
	compactBoth("pure downdate", 0)
	check("pure downdate compacted")

	// Physical layout agrees: no deleted doc survives anywhere.
	goneByID := map[string]bool{"new-04": true, coll.Docs[2].ID: true, coll.Docs[17].ID: true, coll.Docs[11].ID: true}
	for _, r := range both {
		for s := 0; s < r.Shards(); s++ {
			snap := r.ShardSnapshot(s)
			for j := 0; j < snap.NumDocs(); j++ {
				if goneByID[snap.Doc(j).ID] {
					t.Fatalf("%d shards: deleted doc %s physically present", r.Shards(), snap.Doc(j).ID)
				}
			}
		}
	}
}

// TestRouterRejectsBadShapes: construction guards.
func TestRouterRejectsBadShapes(t *testing.T) {
	coll, model, _ := synthFixture(t, 40, 6)
	if _, err := New(coll, model, Config{Shards: 41}); err == nil {
		t.Fatal("more shards than documents accepted")
	}
	small := coll.Subset([]int{0, 1, 2})
	if _, err := New(small, model, Config{Shards: 2}); err == nil {
		t.Fatal("model/collection size mismatch accepted")
	}
}
