package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/rank"
	"repro/internal/server"
	"repro/internal/shard"
)

// partsEqual fails unless two engines' derived arrays are bit-identical:
// Float64bits-equal float slices and bounds, exact int8 and int32 arrays,
// and the cluster index's cells, centroids, radii and placed count.
func partsEqual(t *testing.T, label string, got, want *rank.Parts) {
	t.Helper()
	f64 := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d values, want %d", label, name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, name, i, a[i], b[i])
			}
		}
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %d×%d rows, want %d×%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.Mirror) != len(want.Mirror) {
		t.Fatalf("%s: mirror has %d values, want %d", label, len(got.Mirror), len(want.Mirror))
	}
	for i := range got.Mirror {
		if math.Float32bits(got.Mirror[i]) != math.Float32bits(want.Mirror[i]) {
			t.Fatalf("%s: mirror[%d] = %v, want %v", label, i, got.Mirror[i], want.Mirror[i])
		}
	}
	f64("eps", got.Eps, want.Eps)
	f64("maxEps", []float64{got.MaxEps}, []float64{want.MaxEps})
	if !reflect.DeepEqual(got.Q8, want.Q8) {
		t.Fatalf("%s: int8 tier differs", label)
	}
	f64("scale", got.Scale, want.Scale)
	f64("eps8", got.Eps8, want.Eps8)
	f64("maxEps8", []float64{got.MaxEps8}, []float64{want.MaxEps8})
	if (got.IVF == nil) != (want.IVF == nil) {
		t.Fatalf("%s: index present = %v, want %v", label, got.IVF != nil, want.IVF != nil)
	}
	if got.IVF == nil {
		return
	}
	g, w := *got.IVF, *want.IVF
	f64("ivf cents", g.Cents, w.Cents)
	f64("ivf radius", g.Radius, w.Radius)
	g.Cents, g.Radius, w.Cents, w.Radius = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: index differs\ngot  %+v\nwant %+v", label, g, w)
	}
}

// sameBodies fails unless both routers answer every query's /search
// with the same status-200 bytes.
func sameBodies(t *testing.T, queries []corpus.Query, got, want *shard.Router) {
	t.Helper()
	gs := server.NewFromRouter(got, server.Options{Logf: func(string, ...any) {}})
	ws := server.NewFromRouter(want, server.Options{Logf: func(string, ...any) {}})
	for _, q := range queries {
		path := "/search?n=12&q=" + strings.ReplaceAll(q.Text, " ", "+")
		g, w := httptest.NewRecorder(), httptest.NewRecorder()
		gs.ServeHTTP(g, httptest.NewRequest("GET", path, nil))
		ws.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 || !bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("%s: restored body\n%s\nlive body (status %d)\n%s", path, g.Body, w.Code, w.Body)
		}
	}
}

func saveAndRestore(t *testing.T, live *shard.Router, cfg engine.Config) *shard.Router {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tier.lsnp")
	if err := live.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, f, err := shard.Restore(path, shard.Config{Engine: cfg}, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	t.Cleanup(func() { closeTier(t, restored) })
	return restored
}

// TestRestoredPartsMatchLive: a snapshot stores no scoring tier and no
// cell bound, so restore derives them — and every restored engine's
// mirror, int8 tier, residuals, bounds and index must equal the saved
// engine's bit for bit: at 1 and 3 shards, with the index on and off, on
// a fresh tier, on a tier churned by fold-ins, deletes and compactions,
// and on a tier whose index covers only a row prefix (its model had
// folded rows from the start, so the save cannot compact them away).
func TestRestoredPartsMatchLive(t *testing.T) {
	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 46, Docs: 360, Topics: 6})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 8, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	// The folded start of the prefix case: 30 extra documents folded into
	// the model before the tier is built.
	extra := make([]corpus.Document, 30)
	for i := range extra {
		extra[i] = corpus.Document{ID: fmt.Sprintf("pre-%d", i), Text: coll.Docs[(7*i+2)%coll.Size()].Text}
	}
	folded := model.Clone()
	folded.FoldInDocs(coll.DocVectors(extra))
	foldedColl := corpus.Restore(append(append([]corpus.Document(nil), coll.Docs...), extra...),
		coll.Vocab, coll.ParseOptions())

	for _, shards := range []int{1, 3} {
		for _, ivf := range []bool{true, false} {
			// Size-triggered k-means rebuilds are off, so nothing lands on
			// the live tier after the save's freeze.
			cfg := engine.Config{BatchTick: time.Millisecond, IVFMinRows: 1, IVFRebuildFraction: -1, DisableIVF: !ivf}
			for _, history := range []string{"fresh", "churned", "prefix"} {
				t.Run(fmt.Sprintf("shards=%d/ivf=%v/%s", shards, ivf, history), func(t *testing.T) {
					c, m := coll, model
					if history == "prefix" {
						c, m = foldedColl, folded
					}
					live, err := shard.New(c, m, shard.Config{Shards: shards, Engine: cfg})
					if err != nil {
						t.Fatal(err)
					}
					defer closeTier(t, live)
					ctx := context.Background()
					submit := func(round, n int) {
						for i := 0; i < n; i++ {
							doc := corpus.Document{ID: fmt.Sprintf("r%d-%d", round, i), Text: coll.Docs[(11*i+round)%coll.Size()].Text}
							if _, _, err := live.Submit(ctx, doc); err != nil {
								t.Fatal(err)
							}
						}
					}
					switch history {
					case "churned":
						for round := 0; round < 2; round++ {
							submit(round, 10)
							for _, id := range []string{coll.Docs[5*round].ID, fmt.Sprintf("r%d-3", round)} {
								if _, err := live.Delete(ctx, id); err != nil {
									t.Fatal(err)
								}
							}
							if err := live.Compact(); err != nil {
								t.Fatal(err)
							}
						}
						submit(2, 6)
					case "prefix":
						submit(0, 12)
					}
					restored := saveAndRestore(t, live, cfg)

					st := restored.Stats()
					if ivf != (st.IVFClusters > 0) || st.IVFRebuilds != 0 {
						t.Fatalf("restored index: %d cells, %d k-means builds", st.IVFClusters, st.IVFRebuilds)
					}
					if history == "prefix" && ivf && st.IVFUnclusteredTail == 0 {
						t.Fatal("prefix case restored without an unclustered tail")
					}
					if history == "churned" && live.Stats().Compactions < 3 {
						t.Fatalf("churned tier ran %d compactions", live.Stats().Compactions)
					}
					for s := 0; s < shards; s++ {
						partsEqual(t, fmt.Sprintf("shard %d", s),
							restored.ShardSnapshot(s).Eng.Parts(), live.ShardSnapshot(s).Eng.Parts())
					}
					sameBodies(t, synth.Queries, restored, live)
				})
			}
		}
	}
}

// TestRestoreHonoursTierConfig: the restoring process's tier settings
// decide the restored tiers, as they would for a build — a screened save
// restored with DisableScreening serves the exact path, and an exact-only
// save restored with the defaults gets the mirror and a k-means index.
// /search answers the same bytes either way.
func TestRestoreHonoursTierConfig(t *testing.T) {
	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 47, Docs: 240, Topics: 5})
	coll := synth.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 8, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	screened := engine.Config{BatchTick: time.Millisecond, IVFMinRows: 1}
	exact := engine.Config{BatchTick: time.Millisecond, IVFMinRows: 1, DisableScreening: true}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d/screened-save-exact-restore", shards), func(t *testing.T) {
			live, err := shard.New(coll, model, shard.Config{Shards: shards, Engine: screened})
			if err != nil {
				t.Fatal(err)
			}
			defer closeTier(t, live)
			restored := saveAndRestore(t, live, exact)
			if st := restored.Stats(); st.Screening || st.IVFClusters != 0 {
				t.Fatalf("DisableScreening restore kept the saved tiers: %+v", st.Stats)
			}
			for s := 0; s < shards; s++ {
				if p := restored.ShardSnapshot(s).Eng.Parts(); p.Mirror != nil || p.IVF != nil {
					t.Fatalf("shard %d restored with a mirror or an index", s)
				}
			}
			sameBodies(t, synth.Queries, restored, live)
		})
		t.Run(fmt.Sprintf("shards=%d/exact-save-default-restore", shards), func(t *testing.T) {
			live, err := shard.New(coll, model, shard.Config{Shards: shards, Engine: exact})
			if err != nil {
				t.Fatal(err)
			}
			defer closeTier(t, live)
			restored := saveAndRestore(t, live, screened)
			if st := restored.Stats(); !st.Screening || st.IVFClusters == 0 || st.IVFRebuilds != int64(shards) {
				t.Fatalf("default restore of an exact save did not build the tiers: %+v", st.Stats)
			}
			for s := 0; s < shards; s++ {
				snap := restored.ShardSnapshot(s)
				built := rank.NewEngine(snap.Model.V).BuildIVF(rank.IVFConfig{MinRows: 1})
				partsEqual(t, fmt.Sprintf("shard %d", s), snap.Eng.Parts(), built.Parts())
			}
			sameBodies(t, synth.Queries, restored, live)
		})
	}
}
