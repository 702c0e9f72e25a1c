package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
)

func testServer(t *testing.T) (*Server, *corpus.Collection) {
	return testServerOpts(t, Options{})
}

func testServerOpts(t *testing.T, opts Options) (*Server, *corpus.Collection) {
	t.Helper()
	coll := corpus.MED()
	model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	s, err := NewWithOptions(coll, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, coll
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestSearchEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/search?q=age+blood+abnormalities&n=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var results []SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].ID != "M9" {
		t.Fatalf("top result %s want M9", results[0].ID)
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Cosine < results[i].Cosine {
			t.Fatal("results not sorted")
		}
	}
}

// TestSearchByteStable pins the determinism contract for user-visible
// output: identical /search and /terms requests must produce
// byte-identical response bodies, both on repeated requests against one
// server and across two independently built models. Everything feeding
// these bodies — tokenization, SVD, scoring, tie-breaking, JSON
// encoding — is deterministic; lsilint's maporder check guards the rest
// of the tree against map-iteration order leaking into output.
func TestSearchByteStable(t *testing.T) {
	s1, _ := testServer(t)
	s2, _ := testServer(t)
	paths := []string{
		"/search?q=age+blood+abnormalities+culture&n=10",
		"/terms?w=oestrogen&n=6",
	}
	for _, path := range paths {
		first := get(t, s1, path)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, first.Code, first.Body)
		}
		for i := 0; i < 5; i++ {
			if rec := get(t, s1, path); !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("%s: request %d diverged from first response\n got %s\nwant %s",
					path, i, rec.Body, first.Body)
			}
		}
		if rec := get(t, s2, path); !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s: independently built model diverged\n got %s\nwant %s",
				path, rec.Body, first.Body)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	s, _ := testServer(t)
	if rec := get(t, s, "/search"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing q: status %d", rec.Code)
	}
	// Query of pure stopwords/unknown words returns an empty list, not 500.
	rec := get(t, s, "/search?q=of+the+zzzz")
	if rec.Code != http.StatusOK {
		t.Fatalf("unknown-word query: status %d", rec.Code)
	}
	var results []SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("expected empty results, got %d", len(results))
	}
	// Wrong method.
	req := httptest.NewRequest(http.MethodPost, "/search?q=x", nil)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /search: status %d", rec2.Code)
	}
}

func TestTermsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/terms?w=oestrogen&n=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var terms []TermResult
	if err := json.Unmarshal(rec.Body.Bytes(), &terms); err != nil {
		t.Fatal(err)
	}
	if len(terms) != 4 {
		t.Fatalf("got %d terms", len(terms))
	}
	if rec := get(t, s, "/terms?w=notaword"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown term: status %d", rec.Code)
	}
	if rec := get(t, s, "/terms"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing w: status %d", rec.Code)
	}
}

func TestAddDocumentAndStats(t *testing.T) {
	s, _ := testServer(t)

	stats := func() Stats {
		rec := get(t, s, "/stats")
		if rec.Code != http.StatusOK {
			t.Fatalf("stats status %d", rec.Code)
		}
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := stats()
	if before.Documents != 14 || before.FoldedDocuments != 0 {
		t.Fatalf("initial stats %+v", before)
	}

	body := strings.NewReader(`{"id":"M15","text":"behavior of rats after detected rise in oestrogen"}`)
	req := httptest.NewRequest(http.MethodPost, "/documents", body)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("add doc status %d: %s", rec.Code, rec.Body)
	}

	after := stats()
	if after.Documents != 15 || after.FoldedDocuments != 1 {
		t.Fatalf("post-fold stats %+v", after)
	}
	if after.OrthogonalityLoss <= before.OrthogonalityLoss {
		t.Fatal("orthogonality loss should grow after folding")
	}

	// Screening/IVF observability: the mirror serves MED (so its worst
	// residual is a real positive scalar), the 14-doc collection is far
	// below the index build floor (no clusters, no rebuilds), and the
	// cumulative query counter ticked for the searches above.
	if !after.Screening || after.MirrorMaxEps <= 0 {
		t.Fatalf("mirror stats missing: %+v", after)
	}
	if after.IVFClusters != 0 || after.IVFUnclusteredTail != 0 || after.IVFRebuilds != 0 {
		t.Fatalf("14-doc collection reports an IVF index: %+v", after)
	}

	// The folded document is retrievable.
	sr := get(t, s, "/search?q=rats+oestrogen&n=15")
	var results []SearchResult
	if err := json.Unmarshal(sr.Body.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range results[:5] {
		if r.ID == "M15" {
			found = true
		}
	}
	if !found {
		t.Fatal("folded-in M15 not in top 5 for its own words")
	}

	// The cumulative query counter ticked for the search above.
	if final := stats(); final.Queries != after.Queries+1 {
		t.Fatalf("query counter %d after one search on %d", final.Queries, after.Queries)
	}
}

func TestAddDocumentValidation(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/documents", strings.NewReader("{bad json"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/documents", strings.NewReader(`{"text":""}`))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty text: status %d", rec.Code)
	}
	if rec := postDoc(s, `{"text":"`+strings.Repeat("a", maxBodyBytes)+`"}`); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", rec.Code)
	}
	if rec := get(t, s, "/documents"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /documents: status %d", rec.Code)
	}
}

func TestNewRejectsMismatchedModel(t *testing.T) {
	coll := corpus.MED()
	model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	model.FoldInDocs(coll.DocVectors(corpus.MEDUpdateTopics))
	if _, err := NewWithOptions(coll, model, Options{}); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func postBatch(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/search/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestBatchSearchMatchesSequential(t *testing.T) {
	s, _ := testServer(t)
	queries := []string{
		"age blood abnormalities",
		"oestrogen detected rise",
		"of the zzzz", // vectorizes to zero: must get an empty slot, not shift others
		"depressed patients fast culture",
	}
	body, _ := json.Marshal(BatchSearchRequest{Queries: queries, N: 4})
	rec := postBatch(t, s, string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var batch [][]SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("got %d result lists for %d queries", len(batch), len(queries))
	}
	if len(batch[2]) != 0 {
		t.Fatalf("zero-word query slot not empty: %v", batch[2])
	}
	for i, q := range queries {
		rec := get(t, s, "/search?q="+strings.ReplaceAll(q, " ", "+")+"&n=4")
		var single []SearchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], single) {
			t.Fatalf("query %d: batch diverges from /search\n got %v\nwant %v", i, batch[i], single)
		}
	}
}

func TestBatchSearchValidation(t *testing.T) {
	s, _ := testServer(t)
	// Wrong method.
	req := httptest.NewRequest(http.MethodGet, "/search/batch", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search/batch: status %d", rec.Code)
	}
	if rec := postBatch(t, s, "{bad json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", rec.Code)
	}
	if rec := postBatch(t, s, `{"queries":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty queries: status %d", rec.Code)
	}
	big, _ := json.Marshal(BatchSearchRequest{Queries: make([]string, maxBatchQueries+1)})
	if rec := postBatch(t, s, string(big)); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", rec.Code)
	}
	huge := `{"queries":["` + strings.Repeat("a", maxBodyBytes) + `"]}`
	if rec := postBatch(t, s, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", rec.Code)
	}
}

// postDoc POSTs one document body to /documents.
func postDoc(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/documents", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// expiredRequest builds a request whose context is already done, so the
// handler must bail with a timeout status instead of doing work.
func expiredRequest(method, path, body string) *http.Request {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return req.WithContext(ctx)
}

// TestIntParam is the table-driven regression for the old silent
// coercion: invalid n must surface as an error, not the default.
func TestIntParam(t *testing.T) {
	cases := []struct {
		raw     string
		want    int
		wantErr bool
	}{
		{"", 10, false},
		{"n=5", 5, false},
		{"n=1", 1, false},
		{"n=abc", 0, true},
		{"n=-3", 0, true},
		{"n=0", 0, true},
		{"n=2.5", 0, true},
		{"n=+++", 0, true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/search?"+tc.raw, nil)
		got, err := intParam(r, "n", 10)
		if (err != nil) != tc.wantErr || (!tc.wantErr && got != tc.want) {
			t.Errorf("intParam(%q) = (%d, %v), want (%d, err=%v)", tc.raw, got, err, tc.want, tc.wantErr)
		}
	}
}

// TestInvalidNReturns400 checks the HTTP surface of the same fix on both
// parameterized endpoints.
func TestInvalidNReturns400(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{
		"/search?q=blood&n=abc",
		"/search?q=blood&n=-3",
		"/search?q=blood&n=0",
		"/terms?w=blood&n=abc",
		"/terms?w=blood&n=-1",
	} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400", path, rec.Code)
		}
	}
	// Valid n still works.
	if rec := get(t, s, "/search?q=blood&n=2"); rec.Code != http.StatusOK {
		t.Errorf("valid n: status %d", rec.Code)
	}
}

// TestWriteJSONEncodeFailure: when encoding fails after the header has
// gone out, the server must log and drop — not call http.Error into a
// half-written body (the old behavior, which corrupted the stream and
// triggered a superfluous WriteHeader).
func TestWriteJSONEncodeFailure(t *testing.T) {
	var logged []string
	s := &Server{logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, map[string]any{"bad": make(chan int)}) // unencodable
	if rec.Code != http.StatusOK {
		t.Fatalf("status rewritten to %d after partial write", rec.Code)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "encoding response") {
		t.Fatalf("expected one encode-failure log, got %v", logged)
	}
	if strings.Contains(rec.Body.String(), "chan") {
		t.Fatalf("error text leaked into body: %q", rec.Body.String())
	}
}

// TestDuplicateDocumentID pins the ID-collision satellite: an explicit
// duplicate is rejected with 409, and the auto-generated doc-%d can no
// longer collide with a user-supplied ID.
func TestDuplicateDocumentID(t *testing.T) {
	s, _ := testServer(t)
	if rec := postDoc(s, `{"id":"X1","text":"pressure in depressed patients"}`); rec.Code != http.StatusCreated {
		t.Fatalf("first add: status %d: %s", rec.Code, rec.Body)
	}
	if rec := postDoc(s, `{"id":"X1","text":"another body"}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate add: status %d want 409", rec.Code)
	}
	// Squat on the next auto id, then add an anonymous document: it must
	// get a fresh id, not the squatted one (the old server produced a
	// second doc-15 here).
	if rec := postDoc(s, `{"id":"doc-15","text":"squatter"}`); rec.Code != http.StatusCreated {
		t.Fatalf("squatter add: status %d", rec.Code)
	}
	rec := postDoc(s, `{"text":"anonymous document about rats"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("anonymous add: status %d", rec.Code)
	}
	var resp map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["id"] == "doc-15" {
		t.Fatal("auto id collided with user-supplied id")
	}
	// Every document appears exactly once in the final snapshot.
	snap := s.Router().ShardSnapshot(0)
	seen := map[string]int{}
	for j := 0; j < snap.NumDocs(); j++ {
		seen[snap.Doc(j).ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("id %s appears %d times", id, n)
		}
	}
}

// TestQueueFullBackpressure: with a one-slot queue and a tick that never
// fires, the second submission must get 503 with a Retry-After hint.
func TestQueueFullBackpressure(t *testing.T) {
	s, _ := testServerOpts(t, Options{
		Engine:         engine.Config{QueueSize: 1, BatchTick: time.Hour},
		RequestTimeout: 50 * time.Millisecond,
		RetryAfter:     2 * time.Second,
	})
	// Fills the queue; the request deadline makes the call return without
	// waiting for the (never-arriving) tick.
	rec := postDoc(s, `{"text":"first, queued"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued submit: status %d want 504", rec.Code)
	}
	rec = postDoc(s, `{"text":"second, rejected"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d want 503: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q want \"2\"", got)
	}
	// Close drains the accepted document; the rejected one is gone.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := s.Router().ShardSnapshot(0).NumDocs(); n != 15 {
		t.Fatalf("after drain: %d docs want 15", n)
	}
}

// TestExpiredContextTimeout: a request whose context is already done gets
// a timeout status on every endpoint, before any work happens.
func TestExpiredContextTimeout(t *testing.T) {
	s, _ := testServer(t)
	cases := []*http.Request{
		expiredRequest(http.MethodGet, "/search?q=blood", ""),
		expiredRequest(http.MethodPost, "/search/batch", `{"queries":["blood"]}`),
		expiredRequest(http.MethodGet, "/terms?w=blood", ""),
		expiredRequest(http.MethodPost, "/documents", `{"text":"doomed"}`),
		expiredRequest(http.MethodGet, "/stats", ""),
	}
	for _, req := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("%s %s: status %d want 504", req.Method, req.URL.Path, rec.Code)
		}
	}
}

// TestRequestTimeoutOnSubmitWait: the per-request deadline expires while
// /documents waits for a batch that never comes → 504, but the document
// was accepted and survives the drain.
func TestRequestTimeoutOnSubmitWait(t *testing.T) {
	s, _ := testServerOpts(t, Options{
		Engine:         engine.Config{QueueSize: 8, BatchTick: time.Hour},
		RequestTimeout: 20 * time.Millisecond,
	})
	rec := postDoc(s, `{"id":"slow","text":"accepted but unacknowledged"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504: %s", rec.Code, rec.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	snap := s.Router().ShardSnapshot(0)
	found := false
	for j := 0; j < snap.NumDocs(); j++ {
		if snap.Doc(j).ID == "slow" {
			found = true
		}
	}
	if !found {
		t.Fatal("timed-out submission was lost instead of drained")
	}
}

// TestShutdownDrainsQueuedFoldIns is the drain satellite: submissions
// sitting in the queue when Close is called are folded in before it
// returns, so the final snapshot's document count matches submissions.
func TestShutdownDrainsQueuedFoldIns(t *testing.T) {
	s, _ := testServerOpts(t, Options{
		Engine:         engine.Config{QueueSize: 32, BatchTick: time.Hour},
		RequestTimeout: 20 * time.Millisecond,
	})
	const n = 7
	for i := 0; i < n; i++ {
		rec := postDoc(s, fmt.Sprintf(`{"text":"queued doc %d"}`, i))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("submit %d: status %d", i, rec.Code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Router().ShardSnapshot(0).NumDocs(); got != 14+n {
		t.Fatalf("after drain: %d docs want %d", got, 14+n)
	}
	// A post-shutdown submission is refused, not hung.
	if rec := postDoc(s, `{"text":"late"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-close submit: status %d want 503", rec.Code)
	}
}

// TestMetricsEndpoint: the stdlib exposition carries per-endpoint
// counters, latency histograms, and the pipeline gauges.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	get(t, s, "/search?q=blood&n=3")
	get(t, s, "/search?q=") // 400: missing q
	postDoc(s, `{"text":"metrics fodder"}`)
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`lsi_requests_total{endpoint="search",code="2xx"} 1`,
		`lsi_requests_total{endpoint="search",code="4xx"} 1`,
		`lsi_requests_total{endpoint="documents",code="2xx"} 1`,
		`lsi_request_seconds_bucket{endpoint="search",le="+Inf"} 2`,
		`lsi_request_seconds_count{endpoint="search"} 2`,
		"lsi_snapshot_generation 2",
		"lsi_queue_depth 0",
		"lsi_compactions_total 0",
		"lsi_documents 15",
		"lsi_folded_documents 1",
		"lsi_mirror_max_eps ",
		"lsi_ivf_clusters 0",
		"lsi_ivf_unclustered_tail 0",
		"lsi_ivf_rebuilds_total 0",
		"lsi_queries_total 1",
		"lsi_rescore_candidates_total 0",
		"lsi_ivf_clusters_scanned_total 0",
		"lsi_scanned_rows_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}

// TestSearchParityWithLockedPath pins the acceptance criterion that the
// snapshot read path returns byte-identical /search responses to the
// pre-snapshot lock-based implementation: project the query on the model,
// rank with the model's own cached engine (exactly what the old handler
// did under RLock), encode with the same encoder, and compare bytes.
func TestSearchParityWithLockedPath(t *testing.T) {
	s, coll := testServer(t)
	// An independently built, identical model stands in for the pre-PR
	// server's state (builds are deterministic; TestSearchByteStable
	// already pins that property).
	model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"age+blood+abnormalities&n=3",
		"oestrogen+detected+rise&n=7",
		"depressed+patients&n=14",
	} {
		rec := get(t, s, "/search?q="+q)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		parts := strings.SplitN(q, "&n=", 2)
		raw := coll.QueryVector(strings.ReplaceAll(parts[0], "+", " "))
		n := 10
		fmt.Sscanf(parts[1], "%d", &n)
		ranked := model.RankTop(raw, n) // the old locked path
		want := make([]SearchResult, len(ranked))
		for i, h := range ranked {
			want[i] = SearchResult{ID: coll.Docs[h.Doc].ID, Cosine: h.Score, Text: coll.Docs[h.Doc].Text}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
			t.Fatalf("query %q diverged from locked path\n got %s\nwant %s", q, rec.Body, buf.String())
		}
	}
}

// TestConcurrentSearchAndFold hammers /search and /search/batch from
// several goroutines while documents fold in concurrently. Fold-in
// grows the document matrix and lazily extends the norm cache, so this
// (run under -race) is the proof that the cache's internal locking is
// sound against the server's RLock-only read path.
func TestConcurrentSearchAndFold(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	s, _ := testServer(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			body := strings.NewReader(fmt.Sprintf(`{"text":"depressed patients fast %d"}`, i))
			req := httptest.NewRequest(http.MethodPost, "/documents", body)
			s.ServeHTTP(httptest.NewRecorder(), req)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					rec := get(t, s, "/search?q=blood+culture&n=5")
					if rec.Code != http.StatusOK {
						t.Errorf("search during folding: status %d", rec.Code)
						return
					}
				} else {
					rec := postBatch(t, s, `{"queries":["blood culture","oestrogen rise"],"n":5}`)
					if rec.Code != http.StatusOK {
						t.Errorf("batch search during folding: status %d", rec.Code)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
}

// TestSearchServesDenormalNormRow: a served document whose LSI
// coordinates have a subnormal norm — [5e-324, …] — is cached as a
// finite unit row, so /search stays valid JSON with finite cosines on
// every shard layout instead of failing to encode ±Inf.
func TestSearchServesDenormalNormRow(t *testing.T) {
	for _, shards := range []int{1, 3} {
		coll := corpus.MED()
		model, err := core.BuildCollection(coll, core.Config{K: 2, Method: core.MethodDense})
		if err != nil {
			t.Fatal(err)
		}
		copy(model.V.Row(4), []float64{5e-324, 5e-324})
		s, err := NewWithOptions(coll, model, Options{Shards: shards,
			Engine: engine.Config{BatchTick: time.Millisecond}, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		rec := get(t, s, fmt.Sprintf("/search?q=age+blood+abnormalities&n=%d", coll.Size()))
		var results []SearchResult
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &results) != nil || len(results) != coll.Size() {
			t.Fatalf("shards=%d: status %d body %s", shards, rec.Code, rec.Body)
		}
		found := false
		for _, r := range results {
			if !(r.Cosine >= -1-1e-12 && r.Cosine <= 1+1e-12) {
				t.Fatalf("shards=%d: %s scores %v", shards, r.ID, r.Cosine)
			}
			found = found || r.ID == coll.Docs[4].ID
		}
		if !found {
			t.Fatalf("shards=%d: the denormal row %s is missing from a full ranking", shards, coll.Docs[4].ID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Close(ctx); err != nil {
			t.Error(err)
		}
		cancel()
	}
}
