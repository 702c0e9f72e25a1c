package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/text"
	"repro/internal/weight"
)

// topicalServer serves a topical synthetic corpus wide enough (m ≥ 4 000
// terms) that anything O(m) per request shows up in allocation counts,
// and returns query strings drawn from it.
func topicalServer(tb testing.TB, shards int) (*Server, []string) {
	tb.Helper()
	synth := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: 22, Topics: 40, ConceptsPerTopic: 36, SynonymsPerConcept: 3,
		Docs: 1500, DocLen: 60, NoiseWords: 200, NoiseZipf: true, QueriesPerTopic: 1, QueryLen: 5,
	})
	coll := corpus.New(synth.Docs, text.ParseOptions{MinDocs: 2})
	if coll.Terms() < 4000 {
		tb.Fatalf("fixture has %d terms, want ≥ 4000", coll.Terms())
	}
	model, err := core.BuildCollection(coll, core.Config{K: 16, Scheme: weight.LogEntropy, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewWithOptions(coll, model, Options{
		Shards: shards,
		Engine: engine.Config{BatchTick: time.Millisecond},
		Logf:   func(string, ...any) {},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { closeServer(tb, s) })
	queries := make([]string, len(synth.Queries))
	for i, q := range synth.Queries {
		queries[i] = q.Text
	}
	return s, queries
}

func closeServer(tb testing.TB, s *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		tb.Errorf("close: %v", err)
	}
}

func searchPath(q string) string { return "/search?n=10&q=" + strings.ReplaceAll(q, " ", "+") }

func batchBody(queries []string) string {
	return `{"n":10,"queries":["` + strings.Join(queries, `","`) + `"]}`
}

func serve(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestRestoredServerServesIdenticalBodiesAndStaysWritable: a tier whose
// collections carry no count matrix (the router and every shard after
// New, everything
// after Restore) answers /search and /search/batch with the bytes the
// original did, and its write path — fold-in, then a coordinated
// compaction, both of which re-count documents from text — still works.
func TestRestoredServerServesIdenticalBodiesAndStaysWritable(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			live, queries := topicalServer(t, shards)
			queries = append(queries[:12:12], "zzzz qqqq", queries[0]+" "+queries[0])
			var want [][]byte
			for _, q := range queries {
				rec := serve(live, http.MethodGet, searchPath(q), "")
				if rec.Code != http.StatusOK {
					t.Fatalf("%q: status %d: %s", q, rec.Code, rec.Body)
				}
				want = append(want, rec.Body.Bytes())
			}
			if len(want[0]) < 100 || string(want[12]) != "[]\n" {
				t.Fatalf("fixture bodies: first %q, unindexed %q", want[0], want[12])
			}
			wantBatch := serve(live, http.MethodPost, "/search/batch", batchBody(queries)).Body.Bytes()

			path := filepath.Join(t.TempDir(), "tier.lsnp")
			if err := live.Router().SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			router, f, err := shard.Restore(path, shard.Config{Engine: engine.Config{BatchTick: time.Millisecond}}, true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			restored := NewFromRouter(router, Options{Logf: func(string, ...any) {}})
			defer closeServer(t, restored)
			if router.Collection().TD != nil {
				t.Fatal("restored router rebuilt a term-document matrix")
			}
			if live.Router().Collection().TD != nil || live.coll.TD != nil {
				t.Fatal("built router or server pins the build's term-document matrix")
			}
			for i, q := range queries {
				if got := serve(restored, http.MethodGet, searchPath(q), "").Body.Bytes(); !bytes.Equal(got, want[i]) {
					t.Fatalf("%q: restored body diverged\n got %s\nwant %s", q, got, want[i])
				}
			}
			if got := serve(restored, http.MethodPost, "/search/batch", batchBody(queries)).Body.Bytes(); !bytes.Equal(got, wantBatch) {
				t.Fatal("restored batch body diverged")
			}

			// The dense router entry points are the sparse ones behind a
			// compress: same hits, same score bits.
			for _, r := range []*shard.Router{live.Router(), router} {
				coll := r.Collection()
				var raws [][]float64
				for _, q := range queries[:12] {
					raws = append(raws, coll.QueryVector(q))
					dense, _ := r.Search(coll.QueryVector(q), 10)
					sparse, _ := r.SearchSparse(coll.QueryCounts(q), 10)
					if fmt.Sprint(dense) != fmt.Sprint(sparse) {
						t.Fatalf("%q: Search(raw) = %v, SearchSparse = %v", q, dense, sparse)
					}
					snap := r.ShardSnapshot(0)
					if d, s := snap.RankTop(coll.QueryVector(q), 10), snap.RankTopSparse(coll.QueryCounts(q), 10); fmt.Sprint(d) != fmt.Sprint(s) {
						t.Fatalf("%q: Snapshot.RankTop(raw) = %v, RankTopSparse = %v", q, d, s)
					}
				}
				batch, _ := r.SearchBatch(raws, 10)
				for i, q := range queries[:12] {
					single, _ := r.SearchSparse(coll.QueryCounts(q), 10)
					if fmt.Sprint(batch[i]) != fmt.Sprint(single) {
						t.Fatalf("%q: SearchBatch(raws) row differs from SearchSparse", q)
					}
				}
			}

			// Write path on TD-free collections: the same post folds into
			// both tiers, both compact, and the bodies still agree.
			post := `{"id":"fresh","text":"` + queries[3] + " " + queries[3] + `"}`
			for _, s := range []*Server{live, restored} {
				if rec := serve(s, http.MethodPost, "/documents", post); rec.Code != http.StatusCreated {
					t.Fatalf("post-restore POST /documents: status %d: %s", rec.Code, rec.Body)
				}
			}
			check := func(stage string) {
				t.Helper()
				got := serve(restored, http.MethodGet, searchPath(queries[3]), "").Body
				want := serve(live, http.MethodGet, searchPath(queries[3]), "").Body
				if !strings.Contains(got.String(), `"id":"fresh"`) || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: restored %s\nlive %s", stage, got, want)
				}
			}
			check("after fold-in")
			for _, s := range []*Server{live, restored} {
				if err := s.Router().Compact(); err != nil {
					t.Fatalf("post-restore compaction: %v", err)
				}
				if st := s.Router().Stats(); st.Compactions == 0 {
					t.Fatalf("compaction did not run: %+v", st)
				}
			}
			check("after compaction")
		})
	}
}

// TestSearchRequestAllocationIsIndependentOfVocabularySize: a /search
// request over an m ≥ 4 000-term vocabulary stays under 32 KB of
// allocation. One dense float64 m-vector is already 32 KB; the request
// used to make two.
func TestSearchRequestAllocationIsIndependentOfVocabularySize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	s, queries := topicalServer(t, 1)
	reqs := make([]*http.Request, len(queries))
	for i, q := range queries {
		reqs[i] = httptest.NewRequest(http.MethodGet, searchPath(q), nil)
	}
	one := func(i int) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, reqs[i%len(reqs)])
		if rec.Code != http.StatusOK || rec.Body.Len() < 100 {
			t.Fatalf("status %d body %q", rec.Code, rec.Body)
		}
	}
	one(0) // warm the scan scratch pool
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= rounds; i++ {
		one(i)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("GET /search allocates %d B per request over %d terms", perOp, s.Router().Collection().Terms())
	if perOp > 32<<10 {
		t.Fatalf("GET /search allocates %d B per request, want ≤ %d", perOp, 32<<10)
	}
}

// BenchmarkSearchHandler times one request through ServeHTTP — decode,
// tokenize, count, scatter, project, scan, merge, encode — without the
// benchmark harness: GET /search and a 16-query POST /search/batch.
func BenchmarkSearchHandler(b *testing.B) {
	s, queries := topicalServer(b, 1)
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if rec := serve(s, http.MethodGet, searchPath(queries[n%len(queries)]), ""); rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			var qs []string
			for j := 0; j < 16; j++ {
				qs = append(qs, queries[(16*n+j)%len(queries)])
			}
			if rec := serve(s, http.MethodPost, "/search/batch", batchBody(qs)); rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}
