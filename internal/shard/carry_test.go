package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestChurnedSnapshotRestoresWithItsIndex: a tier churned by fold-ins,
// deletes and compactions saves its carried cluster indexes, and the
// restore adopts them instead of running k-means — the restored IVF
// parts are the live ones byte for byte, the count of rows placed by
// nearest centroid resumes where it stood, and /search answers with the
// live tier's bytes.
func TestChurnedSnapshotRestoresWithItsIndex(t *testing.T) {
	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 14, Docs: 360, Topics: 6})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 8, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	engCfg := engine.Config{BatchTick: time.Millisecond, IVFMinRows: 1}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			live, err := shard.New(coll, model, shard.Config{Shards: shards, Engine: engCfg})
			if err != nil {
				t.Fatal(err)
			}
			defer closeTier(t, live)
			ctx := context.Background()
			churn := func(round, folds int) {
				for i := 0; i < folds; i++ {
					doc := corpus.Document{ID: fmt.Sprintf("r%d-%d", round, i), Text: coll.Docs[(13*i+round)%coll.Size()].Text}
					if _, _, err := live.Submit(ctx, doc); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []string{coll.Docs[3*round].ID, fmt.Sprintf("r%d-1", round)} {
					if _, err := live.Delete(ctx, id); err != nil {
						t.Fatal(err)
					}
				}
			}
			churn(0, 12)
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
			churn(1, 8)
			path := filepath.Join(t.TempDir(), "tier.lsnp")
			if err := live.SaveSnapshot(path); err != nil { // compacts first
				t.Fatal(err)
			}
			restored, f, err := shard.Restore(path, shard.Config{Engine: engCfg}, true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			defer closeTier(t, restored)

			if st := live.Stats(); st.Compactions != 2 || st.IVFRebuilds != int64(shards) {
				t.Fatalf("live tier after two compactions: %+v", st)
			}
			if st := restored.Stats(); st.IVFRebuilds != 0 || st.IVFClusters == 0 || st.IVFUnclusteredTail != 0 {
				t.Fatalf("restore ran k-means or lost the index: %+v", st)
			}
			// The rows compactions placed by nearest centroid drive the next
			// k-means; a restore must resume that budget, not reset it.
			if want, got := live.Stats().IVFPlacedRows, restored.Stats().IVFPlacedRows; want == 0 || got != want {
				t.Fatalf("placed rows %d after restore, %d live (want equal and nonzero)", got, want)
			}
			for s := 0; s < shards; s++ {
				want := live.ShardSnapshot(s).Eng.Parts().IVF
				got := restored.ShardSnapshot(s).Eng.Parts().IVF
				if want == nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("shard %d: restored IVF parts differ from the live index", s)
				}
			}

			ls := server.NewFromRouter(live, server.Options{Logf: func(string, ...any) {}})
			rs := server.NewFromRouter(restored, server.Options{Logf: func(string, ...any) {}})
			for _, q := range synth.Queries {
				path := "/search?n=12&q=" + strings.ReplaceAll(q.Text, " ", "+")
				want, got := httptest.NewRecorder(), httptest.NewRecorder()
				ls.ServeHTTP(want, httptest.NewRequest("GET", path, nil))
				rs.ServeHTTP(got, httptest.NewRequest("GET", path, nil))
				if want.Code != 200 || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("%s: restored body\n%s\nlive body (status %d)\n%s", path, got.Body, want.Code, want.Body)
				}
			}
		})
	}
}

func closeTier(t *testing.T, r *shard.Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("router close: %v", err)
	}
}
