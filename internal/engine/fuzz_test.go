package engine_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/shard"
)

// fuzzWords are MED-vocabulary terms, so every fuzzed document projects to
// a nonzero vector and folds in meaningfully.
var fuzzWords = []string{
	"rats", "oestrogen", "blood", "pressure", "fast", "culture",
	"depressed", "patients", "glucose", "rise", "generation", "behavior",
}

func fuzzText(seed int) string {
	a := fuzzWords[seed%len(fuzzWords)]
	b := fuzzWords[(seed/len(fuzzWords))%len(fuzzWords)]
	return a + " " + b + " " + fuzzWords[(seed+3)%len(fuzzWords)]
}

// FuzzEngineDeleteOracle drives a 1-shard router with an arbitrary interleaving
// of submits, deletes, re-adds of deleted IDs, and queries — decoded from
// the fuzz input — and checks it against a sequential oracle (the live-ID
// set maintained step by step): every op outcome matches the oracle's
// prediction, queries only ever surface live documents, and the snapshot's
// live count tracks the oracle exactly. A tiny compaction threshold keeps
// fold-outs and SVD updates churning underneath the op stream.
func FuzzEngineDeleteOracle(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 3, 12, 6, 1, 3})           // submit, delete, re-add, query
	f.Add([]byte{2, 3})                                 // delete from the seed corpus, query
	f.Add([]byte{0, 0, 0, 2, 2, 2, 2, 3, 1, 1, 3})      // drain live set, resubmit
	f.Add([]byte{3, 3, 3})                              // queries only
	f.Add([]byte{0, 2, 1, 2, 1, 2, 1, 3, 0, 2, 113, 3}) // delete/re-add ping-pong
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		coll := corpus.MED()
		model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
		if err != nil {
			t.Fatal(err)
		}
		r, err := shard.New(coll, model, shard.Config{
			Engine: engine.Config{BatchTick: time.Millisecond, CompactThreshold: 1e-9}})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := r.Close(ctx); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		ctx := context.Background()

		// The oracle: live IDs in insertion order, released IDs available
		// for re-add, and the set view for membership checks.
		live := make([]string, 0, 14+len(data))
		for _, d := range coll.Docs {
			live = append(live, d.ID)
		}
		liveSet := make(map[string]bool, cap(live))
		for _, id := range live {
			liveSet[id] = true
		}
		var dead []string
		fresh := 0

		for i, b := range data {
			arg := int(b >> 2)
			switch b & 3 {
			case 0: // submit a fresh document
				id := fmt.Sprintf("f%d", fresh)
				fresh++
				got, _, err := r.Submit(ctx, corpus.Document{ID: id, Text: fuzzText(arg)})
				if err != nil || got != id {
					t.Fatalf("op %d: submit %s: id=%q err=%v", i, id, got, err)
				}
				live = append(live, id)
				liveSet[id] = true
			case 1: // re-add a deleted ID (fresh submit when none released)
				if len(dead) == 0 {
					id := fmt.Sprintf("f%d", fresh)
					fresh++
					if _, _, err := r.Submit(ctx, corpus.Document{ID: id, Text: fuzzText(arg)}); err != nil {
						t.Fatalf("op %d: submit %s: %v", i, id, err)
					}
					live = append(live, id)
					liveSet[id] = true
					break
				}
				j := arg % len(dead)
				id := dead[j]
				dead = append(dead[:j], dead[j+1:]...)
				if _, _, err := r.Submit(ctx, corpus.Document{ID: id, Text: fuzzText(arg)}); err != nil {
					t.Fatalf("op %d: re-add of deleted %s: %v", i, id, err)
				}
				live = append(live, id)
				liveSet[id] = true
			case 2: // delete a live document (unknown-ID probe when empty)
				if len(live) == 0 {
					if _, err := r.Delete(ctx, "nonexistent"); !errors.Is(err, engine.ErrUnknownID) {
						t.Fatalf("op %d: empty-set delete: err=%v want ErrUnknownID", i, err)
					}
					break
				}
				j := arg % len(live)
				id := live[j]
				live = append(live[:j], live[j+1:]...)
				delete(liveSet, id)
				if _, err := r.Delete(ctx, id); err != nil {
					t.Fatalf("op %d: delete %s: %v", i, id, err)
				}
				dead = append(dead, id)
			case 3: // query; results must be live per the oracle
				s := r.ShardSnapshot(0)
				if s.LiveDocs() != len(live) {
					t.Fatalf("op %d: snapshot live %d, oracle %d", i, s.LiveDocs(), len(live))
				}
				n := 1 + arg%8
				ranked := s.RankTop(coll.QueryVector(fuzzText(arg)), n)
				if want := min(n, len(live)); len(ranked) != want {
					t.Fatalf("op %d: %d results want %d", i, len(ranked), want)
				}
				for _, hit := range ranked {
					id := s.Doc(hit.Doc).ID
					if !liveSet[id] {
						t.Fatalf("op %d: query surfaced non-live doc %s", i, id)
					}
				}
			}
		}
		// Final snapshot agrees with the oracle on the full live set.
		s := r.ShardSnapshot(0)
		if s.LiveDocs() != len(live) {
			t.Fatalf("final live %d, oracle %d", s.LiveDocs(), len(live))
		}
		for j := 0; j < s.NumDocs(); j++ {
			if id := s.Doc(j).ID; !s.Dead.Has(j) && !liveSet[id] {
				t.Fatalf("final snapshot serves non-live doc %s", id)
			}
		}
	})
}
