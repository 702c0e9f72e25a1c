// Package server exposes an LSI database over HTTP — the shape of the
// paper's NETLIB deployment (§5.4), where LSI ran as a fuzzy search option
// over algorithms and article descriptions. Endpoints:
//
//	GET  /search?q=words&n=10     ranked documents for a free-text query
//	POST /search/batch            rank a block of queries in one engine call
//	GET  /terms?w=word&n=10       nearest indexed terms (online thesaurus)
//	POST /documents               fold a new document into the database
//	DELETE /docs/{id}             delete a document (tombstone, then fold-out)
//	GET  /stats                   model dimensions and fold-in diagnostics
//	GET  /metrics                 Prometheus text: counters, latencies, pipeline gauges
//
// Requests are served by a sharded scatter–gather tier
// (internal/shard): Options.Shards engines each own a slice of the
// corpus, queries fan out to all shards and merge exactly, and
// submissions route to their owner shard (reported in the X-LSI-Shard
// response header). Each shard serves immutable snapshots published by
// its internal/engine update pipeline: the read path performs one atomic
// pointer load per shard and never takes a lock, while fold-ins queue to
// that shard's background updater, and the router coordinates
// SVD-update compaction (§4.2) across shards when the global §4.3
// orthogonality loss crosses its threshold. Search responses carry an
// X-LSI-Generation header naming the per-shard generation vector
// ("3,4,2"; a bare number when unsharded) that served them; responses
// with equal generation vectors are byte-identical for identical
// requests — sharding changes throughput, never bytes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/synonym"
)

// Options configures the HTTP layer and its underlying serving tier.
type Options struct {
	// Shards is how many engine shards serve the corpus (default 1).
	// Results are byte-identical for every value; shards give each slice
	// its own update pipeline. What they cost the read side is measured by
	// shard's BenchmarkRouterShards (docs/SERVING.md, "Tuning -shards").
	Shards int
	// Engine parameterizes each shard's snapshot/update pipeline (queue
	// size, batch tick). Its CompactThreshold drives the router's
	// coordinated compaction monitor (shards never compact alone).
	Engine engine.Config
	// RequestTimeout bounds each request via its context; 0 disables.
	// An expired deadline yields 504 Gateway Timeout.
	RequestTimeout time.Duration
	// RetryAfter is the hint clients receive with a 503 when the fold-in
	// queue is full (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// Logf receives diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// Server wraps a collection and its LSI model with an http.Handler.
type Server struct {
	router  *shard.Router
	coll    *corpus.Collection
	mux     *http.ServeMux
	metrics *metrics
	timeout time.Duration
	retry   time.Duration
	logf    func(format string, args ...any)
}

// NewWithOptions builds a server around an existing collection and
// model. The model must have been built from the collection (same
// vocabulary and documents); the serving tier takes ownership of it, so
// the caller must not mutate it afterwards. Neither the server nor the
// tier keeps the collection itself — only its vocabulary and parse
// options — so its count matrix can be freed once the caller drops it.
func NewWithOptions(coll *corpus.Collection, model *core.Model, opts Options) (*Server, error) {
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if opts.Engine.Logf == nil {
		opts.Engine.Logf = opts.Logf
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	router, err := shard.New(coll, model, shard.Config{
		Shards: opts.Shards,
		Engine: opts.Engine,
		Logf:   opts.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return newFromRouter(router, opts), nil
}

// NewFromRouter wraps an already-constructed serving tier — the
// -load-model path, where the router was restored from a snapshot file
// instead of built from a collection and model. The router's own
// (vocabulary-only) collection parses queries; opts.Shards and the
// engine pipeline knobs are ignored, since the restored tier already
// has them.
func NewFromRouter(router *shard.Router, opts Options) *Server {
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	return newFromRouter(router, opts)
}

// newFromRouter parses queries with the router's own collection — the
// vocabulary and parse options, never the build's count matrix.
func newFromRouter(router *shard.Router, opts Options) *Server {
	s := &Server{
		router:  router,
		coll:    router.Collection(),
		mux:     http.NewServeMux(),
		metrics: newMetrics("search", "search_batch", "terms", "documents", "delete_document", "stats", "metrics"),
		timeout: opts.RequestTimeout,
		retry:   opts.RetryAfter,
		logf:    opts.Logf,
	}
	s.mux.HandleFunc("/search", s.instrument("search", s.handleSearch))
	s.mux.HandleFunc("/search/batch", s.instrument("search_batch", s.handleSearchBatch))
	s.mux.HandleFunc("/terms", s.instrument("terms", s.handleTerms))
	s.mux.HandleFunc("/documents", s.instrument("documents", s.handleDocuments))
	s.mux.HandleFunc("/docs/", s.instrument("delete_document", s.handleDeleteDocument))
	s.mux.HandleFunc("/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	return s
}

// Router exposes the sharded serving tier (for shutdown wiring, stats
// and tests).
func (s *Server) Router() *shard.Router { return s.router }

// Close stops the compaction monitor, drains every shard's fold-in
// queue and stops the update pipelines; after it returns, every
// acknowledged or queued document is part of some shard's final
// snapshot. Use it for graceful shutdown after http.Server.Shutdown.
func (s *Server) Close(ctx context.Context) error { return s.router.Close(ctx) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the robustness plumbing shared by every
// endpoint: a per-request context deadline (when configured), an
// up-front check that the deadline hasn't already expired, and
// status/latency recording for /metrics.
//
//lsilint:file-ignore walltime — request deadlines and latency metrics are wall-clock by nature
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if err := r.Context().Err(); err != nil {
			// The client is gone or the deadline already passed: don't
			// start work nobody will read.
			http.Error(sw, "request deadline exceeded", http.StatusGatewayTimeout)
		} else {
			h(sw, r)
		}
		s.metrics.observe(name, sw.code, time.Since(start))
	}
}

// SearchResult is one /search response row.
type SearchResult struct {
	ID     string  `json:"id"`
	Cosine float64 `json:"cosine"`
	Text   string  `json:"text,omitempty"`
}

// setGeneration stamps the per-shard generation vector that served a
// read ("3,4,2"; a bare number when unsharded), so clients (and the
// stress suite) can correlate responses with snapshots.
func setGeneration(w http.ResponseWriter, gens []uint64) {
	parts := make([]string, len(gens))
	for i, g := range gens {
		parts[i] = strconv.FormatUint(g, 10)
	}
	w.Header().Set("X-LSI-Generation", strings.Join(parts, ","))
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	n, err := intParam(r, "n", 10)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	counts := s.coll.QueryCounts(q)
	if len(counts.Idx) == 0 {
		setGeneration(w, s.router.Generations())
		s.writeJSON(w, []SearchResult{})
		return
	}
	// Scatter–gather: one atomic load per shard pins immutable views, the
	// per-shard exact top-n merge under (score desc, submission order asc),
	// byte-identical to a single engine over the whole corpus.
	hits, gens := s.router.SearchSparse(counts, n)
	setGeneration(w, gens)
	s.writeJSON(w, s.results(hits))
}

func (s *Server) results(hits []shard.Hit) []SearchResult {
	out := make([]SearchResult, len(hits))
	for i, h := range hits {
		out[i] = SearchResult{ID: h.ID, Cosine: h.Score, Text: h.Text}
	}
	return out
}

// maxBatchQueries bounds one /search/batch request; a block this size is
// already enough to amortize the gemm, and an unbounded request is a
// memory foot-gun on a public endpoint (maxBodyBytes bounds the bytes).
const maxBatchQueries = 1024

// maxBodyBytes bounds a POST body before it is decoded: the largest
// legitimate request is one long document or maxBatchQueries short
// queries, and the decoder would otherwise buffer whatever a client sends.
const maxBodyBytes = 4 << 20

// decodeBody decodes a JSON POST body of at most maxBodyBytes into v. On
// failure it has answered 413 (body too large) or 400 (not JSON) and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// BatchSearchRequest is the /search/batch POST body.
type BatchSearchRequest struct {
	Queries []string `json:"queries"`
	N       int      `json:"n"`
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req BatchSearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "empty queries", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > maxBatchQueries {
		http.Error(w, fmt.Sprintf("too many queries: %d > %d", len(req.Queries), maxBatchQueries), http.StatusBadRequest)
		return
	}
	n := req.N
	if n <= 0 {
		n = 10
	}
	// Vectorize every query; the non-empty ones scatter to every shard as
	// one block — each shard runs its own TopKBatch over the whole batch
	// (exact engines gemm, screened engines scan per query) — and merge
	// per query row.
	out := make([][]SearchResult, len(req.Queries))
	counts := make([]sparse.Vec, 0, len(req.Queries))
	slots := make([]int, 0, len(req.Queries))
	for i, q := range req.Queries {
		c := s.coll.QueryCounts(q)
		if len(c.Idx) == 0 {
			out[i] = []SearchResult{}
			continue
		}
		counts = append(counts, c)
		slots = append(slots, i)
	}
	rows, gens := s.router.SearchBatchSparse(counts, n)
	setGeneration(w, gens)
	for bi, hits := range rows {
		out[slots[bi]] = s.results(hits)
	}
	s.writeJSON(w, out)
}

// TermResult is one /terms response row.
type TermResult struct {
	Term string `json:"term"`
}

func (s *Server) handleTerms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	word := r.URL.Query().Get("w")
	if word == "" {
		http.Error(w, "missing w parameter", http.StatusBadRequest)
		return
	}
	n, err := intParam(r, "n", 10)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The term basis (U, S) is identical on every shard by construction;
	// shard 0's snapshot answers for all of them.
	snap := s.router.ShardSnapshot(0)
	setGeneration(w, s.router.Generations())
	near, err := synonym.NearestTerms(snap.Model, s.coll.Vocab, word, n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	out := make([]TermResult, len(near))
	for i, t := range near {
		out[i] = TermResult{Term: t}
	}
	s.writeJSON(w, out)
}

// AddDocumentRequest is the /documents POST body.
type AddDocumentRequest struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

func (s *Server) handleDocuments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req AddDocumentRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Text == "" {
		http.Error(w, "empty document text", http.StatusBadRequest)
		return
	}
	id, shardIdx, err := s.router.Submit(r.Context(), corpus.Document{ID: req.ID, Text: req.Text})
	if shardIdx >= 0 {
		// Which shard owns (or rejected) this document — placement is
		// stable, so clients can correlate backpressure with a shard.
		w.Header().Set("X-LSI-Shard", strconv.Itoa(shardIdx))
	}
	switch {
	case err == nil:
		w.WriteHeader(http.StatusCreated)
		s.writeJSON(w, map[string]string{"id": id})
	case errors.Is(err, engine.ErrQueueFull):
		// Backpressure, not failure: tell the client when to come back.
		// Only the owner shard's queue was full — other shards' backlogs
		// neither cause nor clear this 503, and the error says which queue
		// (with its depth/capacity) to wait for.
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retry+time.Second-1)/time.Second)))
		http.Error(w, err.Error()+", retry later", http.StatusServiceUnavailable)
	case errors.Is(err, engine.ErrDuplicateID):
		http.Error(w, fmt.Sprintf("document id %q already exists", req.ID), http.StatusConflict)
	case errors.Is(err, engine.ErrClosed):
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The document was accepted and will fold in; only the wait for
		// its batch timed out.
		http.Error(w, "request deadline exceeded before fold-in was published", http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleDeleteDocument serves DELETE /docs/{id}: the document becomes
// invisible to every query before the 204 returns (tombstone), and its
// row is folded out of the model at the next coordinated compaction. The
// ID is released, so it can be resubmitted as a fresh document.
func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/docs/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "missing or malformed document id", http.StatusBadRequest)
		return
	}
	shardIdx, err := s.router.Delete(r.Context(), id)
	if shardIdx >= 0 {
		w.Header().Set("X-LSI-Shard", strconv.Itoa(shardIdx))
	}
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, engine.ErrUnknownID):
		http.Error(w, fmt.Sprintf("document id %q does not exist", id), http.StatusNotFound)
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.retry+time.Second-1)/time.Second)))
		http.Error(w, err.Error()+", retry later", http.StatusServiceUnavailable)
	case errors.Is(err, engine.ErrClosed):
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The delete was accepted and will apply; only the wait for its
		// batch timed out.
		http.Error(w, "request deadline exceeded before delete was published", http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Stats is the /stats response: the shape of the shared term basis and
// the global §4.3 orthogonality loss, then the tier's shard.Stats —
// corpus-wide aggregates (sums over shards; generation is the highest
// shard generation, compactions counts coordinated cycles) plus the full
// per-shard blocks.
type Stats struct {
	Terms             int     `json:"terms"`
	Factors           int     `json:"factors"`
	Sigma1            float64 `json:"sigma1"`
	OrthogonalityLoss float64 `json:"orthogonality_loss"`
	shard.Stats
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st := s.router.Stats()
	setGeneration(w, st.Generations)
	// The term basis is shared; shard 0's snapshot answers for shape.
	snap := s.router.ShardSnapshot(0)
	s.writeJSON(w, Stats{
		Terms:             snap.Model.NumTerms(),
		Factors:           snap.Model.K,
		Sigma1:            snap.Model.S[0],
		OrthogonalityLoss: s.router.Orthogonality(),
		Stats:             st,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	st := s.router.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Per-shard series for the gauges whose aggregate hides the thing an
	// operator acts on: one hot queue, one shard lagging generations.
	genSeries := make([]labeledValue, len(st.PerShard))
	depthSeries := make([]labeledValue, len(st.PerShard))
	docSeries := make([]labeledValue, len(st.PerShard))
	for i, ss := range st.PerShard {
		label := strconv.Itoa(ss.Shard)
		genSeries[i] = labeledValue{label, ss.Generation}
		depthSeries[i] = labeledValue{label, ss.QueueDepth}
		docSeries[i] = labeledValue{label, ss.Documents}
	}
	s.metrics.render(w, []gauge{
		{"lsi_snapshot_generation", "Highest shard serving-snapshot generation (monotonic).", "gauge", st.Generation},
		{"lsi_queue_depth", "Fold-in submissions waiting for the next batch tick, summed over shards.", "gauge", st.QueueDepth},
		{"lsi_compactions_total", "Coordinated SVD-update compaction cycles completed.", "counter", st.Compactions},
		{"lsi_documents", "Documents in the serving snapshots, summed over shards.", "gauge", st.Documents},
		{"lsi_folded_documents", "Documents folded in since the last SVD state, summed over shards.", "gauge", st.FoldedDocuments},
		{"lsi_tombstones", "Deleted documents still physically present (folded out at the next compaction), summed over shards.", "gauge", st.Tombstones},
		{"lsi_shards", "Engine shards serving the corpus.", "gauge", st.Shards},
		{"lsi_screening_enabled", "1 when the float32 screening mirror serves queries on every shard, 0 on the exact-only path.", "gauge", boolGauge(st.Screening)},
		{"lsi_mirror_max_eps", "Worst per-row quantization residual of the float32 screening mirror across shards.", "gauge", st.MirrorMaxEps},
		{"lsi_ivf_clusters", "Cells in the serving cluster indexes, summed over shards (0 when unindexed).", "gauge", st.IVFClusters},
		{"lsi_ivf_unclustered_tail", "Rows past the indexed prefix (appended since the last index build or compaction), summed over shards; always scanned.", "gauge", st.IVFUnclusteredTail},
		{"lsi_ivf_placed_rows", "Rows compactions placed in a cell by nearest centroid since the last k-means build, summed over shards; with the tail, what drives the next rebuild.", "gauge", st.IVFPlacedRows},
		{"lsi_ivf_rebuilds_total", "K-means cluster-index builds that have landed, summed over shards.", "counter", st.IVFRebuilds},
		{"lsi_queries_total", "Ranked queries served (batch rows counted individually), summed over shards.", "counter", st.Queries},
		{"lsi_rescore_candidates_total", "Rows rescored in float64 after certified screening, summed over queries and shards.", "counter", st.RescoreCandidates},
		{"lsi_ivf_clusters_scanned_total", "IVF cells visited before the certified bound or probe cap stopped the scan, summed over queries and shards.", "counter", st.ClustersScanned},
		{"lsi_scanned_rows_total", "Mirror rows touched by screening stage 1, summed over queries and shards.", "counter", st.ScannedRows},
	}, []labeledGauge{
		{"lsi_shard_snapshot_generation", "Serving snapshot generation, by shard.", "gauge", "shard", genSeries},
		{"lsi_shard_queue_depth", "Fold-in submissions waiting for the next batch tick, by shard.", "gauge", "shard", depthSeries},
		{"lsi_shard_documents", "Documents in the serving snapshot, by shard.", "gauge", "shard", docSeries},
	})
}

// intParam parses a positive integer query parameter, returning def when
// absent and an error — which handlers turn into 400 — when present but
// not a positive integer.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("parameter %s must be a positive integer, got %q", name, v)
	}
	return n, nil
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeJSON encodes v onto the response. By the time encoding fails the
// status line and part of the body may already be on the wire, so there
// is no valid way to switch to an error response — http.Error here would
// just interleave garbage into the stream. Log and drop instead.
func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("server: encoding response: %v", err)
	}
}
