// Package shard is the scatter–gather serving tier: a Router owns N
// engine.Engine shards — each with its own snapshot pointer, fold-in
// queue, scoring cache, IVF index and compaction lifecycle — behind one
// submit/search surface, spreading update and query work across shards
// without giving up exactness (BenchmarkRouterShards measures what the
// spread costs a read).
//
// The exactness argument has three legs:
//
//   - Placement never changes coordinates. Folding a document in is a
//     projection q̂ = qᵀU_kΣ_k⁻¹ that depends only on the shared term
//     basis (U, S), the global weights and the weighting scheme — all
//     identical across shards by construction — so a document's vector
//     is bit-identical no matter which shard folds it, in which batch.
//   - Per-shard top-k is exact. The PR 5/6 screening and cluster-pruning
//     machinery certifies each shard's local top-k byte-exact against a
//     plain float64 scan of that shard's rows.
//   - The merge is exact. Each shard returns its local top-k under the
//     total order (score desc, doc asc); the global top-k is a subset of
//     the union of local top-ks, so rank.MergeTopK — sort the union,
//     truncate — returns exactly the top-k a single engine over the
//     concatenated corpus would, with the global submission ordinal
//     standing in for the single engine's row index as tie-break.
//
// Compaction is the one operation that cannot be per-shard-independent:
// an SVD-update re-diagonalizes the basis, and N independent updates
// would leave shards scoring in N different latent spaces. The Router
// therefore coordinates: it freezes every shard, computes ONE update
// plan (core.PlanDocsUpdate) over the globally ordered pending set, and
// every shard applies that plan to its own rows — bit-identical to a
// single engine compacting the concatenated corpus (see compact.go).
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/rank"
	"repro/internal/sparse"
)

// Config parameterizes the router. The zero value gets one shard and the
// engine defaults.
type Config struct {
	// Shards is the number of engine shards (default 1). Construction
	// fails when there are more shards than initial documents.
	Shards int
	// Engine is the per-shard engine configuration. Its CompactThreshold
	// is the router's: the global document-orthogonality loss
	// (‖VᵀV − I‖_F over the conceptual concatenated V) above which the
	// monitor runs a coordinated compaction; 0 disables the monitor
	// (explicit Compact calls still work). Shards never compact
	// independently — each SVD-update rotates the latent basis, and
	// independently rotated shards stop being score-comparable.
	Engine engine.Config
	// CompactCheck is how often the monitor evaluates the threshold
	// (default 2×BatchTick, clamped to [1ms, 1s]).
	CompactCheck time.Duration
	// Logf receives diagnostics (default: discard).
	Logf func(format string, args ...any)
}

// Hit is one merged search result.
type Hit struct {
	ID    string
	Text  string
	Score float64
	// Shard is the shard the document lives on.
	Shard int
}

// QueueFullError reports backpressure from the single shard that owns
// the submitted document — other shards' queues are irrelevant to this
// submission, so Retry-After accounting is per-shard by construction.
// It unwraps to engine.ErrQueueFull.
type QueueFullError struct {
	Shard    int
	Depth    int
	Capacity int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("shard %d: fold-in queue full (%d/%d)", e.Shard, e.Depth, e.Capacity)
}

func (e *QueueFullError) Unwrap() error { return engine.ErrQueueFull }

// ShardStats is one shard's engine stats plus its index.
type ShardStats struct {
	Shard int `json:"shard"`
	engine.Stats
}

// Stats is the tier for /stats and /metrics: the embedded engine.Stats
// holds the totals over shards (engine.Stats.Add), except that
// Compactions counts coordinated cycles — not a per-shard sum — and
// Compacting reports one in flight; the full per-shard blocks sit
// underneath.
type Stats struct {
	Shards      int      `json:"shards"`
	Generations []uint64 `json:"generations"`
	Compacting  bool     `json:"compacting"`
	engine.Stats
	PerShard []ShardStats `json:"per_shard"`
}

// Router owns the shards and the cross-shard bookkeeping: the global ID
// registry (duplicate detection across shards + the merge tie-break
// ordinal), the auto-ID counter, and the coordinated compactor.
type Router struct {
	cfg    Config
	coll   *corpus.Collection
	shards []*engine.Engine

	// ids maps document ID → idEntry: the cross-shard duplicate gate, the
	// merge tie-break ordinal, and the owner shard a delete routes to.
	// Deletion releases the entry, so a deleted ID can be resubmitted (it
	// gets a fresh ordinal).
	ids sync.Map
	// nextOrd is the next global submission ordinal; ordinals of rejected
	// submissions are burned, which is fine — only the relative order
	// matters.
	nextOrd atomic.Int64
	// nextAuto numbers auto-assigned "doc-N" IDs globally, so shards can
	// never collide.
	nextAuto atomic.Int64
	// rr is the round-robin cursor for placing auto-ID submissions.
	rr atomic.Int64

	closeMu sync.RWMutex
	//lsilint:guardedby closeMu
	closed bool

	// compactMu serializes coordinated compactions; compacting mirrors it
	// for Stats.
	compactMu   sync.Mutex
	compacting  atomic.Bool
	compactions atomic.Int64

	// deadStuck is set when a compaction cycle left dead base rows in
	// place (globally degenerate downdate); the monitor then stops forcing
	// tombstone-triggered cycles until new activity changes the geometry.
	deadStuck atomic.Bool

	monitorStop chan struct{}
	monitorDone chan struct{}
	// monitorEvals counts the monitor's orthogonality evaluations (read by
	// tests: an idle tier must not re-evaluate).
	monitorEvals atomic.Int64
}

// idEntry is the registry record for one live document: its global
// submission ordinal (the merge tie-break) and the shard that owns it
// (where a delete must route — derivable from the ID hash for
// user-supplied IDs, but not for round-robin-placed auto IDs).
type idEntry struct {
	ord   int64
	shard int
}

// New splits the corpus round-robin across cfg.Shards engines — shard s
// owns initial documents s, s+N, s+2N, … — and starts them. The model
// must have been built from the collection; each shard serves a
// DocSubsetView sharing the model's term basis, so queries project
// identically everywhere. The caller must not mutate coll or model
// afterwards.
func New(coll *corpus.Collection, model *core.Model, cfg Config) (*Router, error) {
	if model.NumDocs() != coll.Size() {
		return nil, fmt.Errorf("shard: model has %d docs, collection %d", model.NumDocs(), coll.Size())
	}
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	if n > coll.Size() {
		return nil, fmt.Errorf("shard: %d shards for %d documents", n, coll.Size())
	}
	cfg.Shards = n
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	idx := make([][]int, n)
	for j := 0; j < coll.Size(); j++ {
		idx[j%n] = append(idx[j%n], j)
	}
	// The router keeps the vocabulary and parse options only: the build's
	// count matrix and document slice are not pinned past construction.
	r := &Router{cfg: cfg, coll: corpus.Restore(nil, coll.Vocab, coll.ParseOptions())}
	for j, d := range coll.Docs {
		r.ids.Store(d.ID, idEntry{ord: int64(j), shard: j % n})
	}
	r.nextOrd.Store(int64(coll.Size()))
	r.nextAuto.Store(int64(coll.Size()))

	engines, err := startShards(n, func(s int) (*engine.Engine, error) {
		docs := make([]corpus.Document, len(idx[s]))
		for i, j := range idx[s] {
			docs[i] = coll.Docs[j]
		}
		// Documents plus the shared vocabulary, no count matrix: nothing
		// downstream of a factored model reads TD.
		local := corpus.Restore(docs, coll.Vocab, coll.ParseOptions())
		return engine.New(local, model.DocSubsetView(idx[s]), cfg.Engine)
	})
	if err != nil {
		return nil, err
	}
	r.shards = engines
	r.startMonitor()
	return r, nil
}

// startShards runs start for shards 0..n-1 concurrently — New builds
// and Restore restores every shard this way. On any failure it closes
// every engine that did start and reports the lowest-index shard's
// error.
func startShards(n int, start func(s int) (*engine.Engine, error)) ([]*engine.Engine, error) {
	engines := make([]*engine.Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			engines[s], errs[s] = start(s)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			for _, e := range engines {
				if e != nil {
					_ = e.Close(ctx)
				}
			}
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return engines, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Shard exposes one underlying engine for read-side wiring (snapshots,
// stats). Submitting to it directly would bypass the global ID registry —
// always go through Router.Submit.
func (r *Router) Shard(s int) *engine.Engine { return r.shards[s] }

// Generations returns the current per-shard generation vector without
// running a query.
func (r *Router) Generations() []uint64 { return generations(r.snapshots()) }

// Orthogonality returns the global ‖VᵀV − I‖_F across all shards — the
// §4.3 fold-in distortion measure the compaction monitor watches,
// identical to the single-engine DocOrthogonality on the concatenation.
func (r *Router) Orthogonality() float64 { return r.orthogonality(r.snapshots()) }

// ShardSnapshot returns shard s's current serving snapshot — one atomic
// load, the same guarantee as engine.Snapshot. Endpoints that only need
// the shared term basis (e.g. /terms) read shard 0.
func (r *Router) ShardSnapshot(s int) *engine.Snapshot { return r.shards[s].Snapshot() }

// snapshots loads one snapshot per shard. Loads are independent (shards
// publish independently), but each load is immutable, so a result set is
// fully determined by the generation vector it was computed from.
func (r *Router) snapshots() []*engine.Snapshot {
	snaps := make([]*engine.Snapshot, len(r.shards))
	for s, e := range r.shards {
		snaps[s] = e.Snapshot()
	}
	return snaps
}

func generations(snaps []*engine.Snapshot) []uint64 {
	gens := make([]uint64, len(snaps))
	for s, sn := range snaps {
		gens[s] = sn.Gen
	}
	return gens
}

// hashShard places a user-supplied ID on its stable owner shard.
func hashShard(id string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// Submit routes one document to its owner shard — stable FNV hash for
// user IDs, round-robin for auto-assigned IDs — and waits like
// engine.Submit does. Duplicate user IDs are rejected against the
// global registry (409 on ANY shard, not just the owner); auto IDs come
// from a global counter and can never collide across shards. The
// returned shard index is where the document landed (-1 when it was
// rejected before routing).
func (r *Router) Submit(ctx context.Context, doc corpus.Document) (id string, shard int, err error) {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	if r.closed {
		return "", -1, engine.ErrClosed
	}
	if doc.ID == "" {
		shard = int((r.rr.Add(1) - 1) % int64(len(r.shards)))
		for {
			doc.ID = fmt.Sprintf("doc-%d", r.nextAuto.Add(1)-1)
			if _, taken := r.ids.LoadOrStore(doc.ID, idEntry{ord: r.nextOrd.Add(1) - 1, shard: shard}); !taken {
				break
			}
			// A user already took this name: burn the number (and the
			// ordinal) and keep counting — same skip-over semantics as the
			// single engine's auto-assignment.
		}
	} else {
		shard = hashShard(doc.ID, len(r.shards))
		if _, dup := r.ids.LoadOrStore(doc.ID, idEntry{ord: r.nextOrd.Add(1) - 1, shard: shard}); dup {
			return "", -1, fmt.Errorf("%w: %q", engine.ErrDuplicateID, doc.ID)
		}
	}
	if _, serr := r.shards[shard].Submit(ctx, doc); serr != nil {
		if errors.Is(serr, context.Canceled) || errors.Is(serr, context.DeadlineExceeded) {
			// Accepted by the shard; it will fold in and survive Close's
			// drain, so the registration stands.
			return doc.ID, shard, serr
		}
		// Rejected before acceptance: roll the registration back so the
		// ID can be retried.
		r.ids.Delete(doc.ID)
		if errors.Is(serr, engine.ErrQueueFull) {
			st := r.shards[shard].Stats()
			return "", shard, &QueueFullError{
				Shard: shard, Depth: st.QueueDepth, Capacity: r.shards[shard].QueueCapacity(),
			}
		}
		return "", shard, serr
	}
	r.deadStuck.Store(false)
	return doc.ID, shard, nil
}

// Delete routes a tombstone to the shard that owns the named document and
// waits like engine.Delete does. On success (or on a context expiry — the
// delete was accepted and will apply) the ID is released from the global
// registry, so it can be resubmitted as a fresh document with a fresh
// ordinal. Unknown IDs return engine.ErrUnknownID. The returned shard is
// the owner (-1 when the ID was unknown to the registry).
func (r *Router) Delete(ctx context.Context, id string) (shard int, err error) {
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	if r.closed {
		return -1, engine.ErrClosed
	}
	v, ok := r.ids.Load(id)
	if !ok {
		return -1, fmt.Errorf("%w: %q", engine.ErrUnknownID, id)
	}
	ent := v.(idEntry)
	derr := r.shards[ent.shard].Delete(ctx, id)
	switch {
	case derr == nil, errors.Is(derr, context.Canceled), errors.Is(derr, context.DeadlineExceeded):
		// Applied (or accepted: the tombstone rides the queue and survives
		// Close's drain). Release the registration either way.
		r.ids.Delete(id)
		r.deadStuck.Store(false)
		return ent.shard, derr
	case errors.Is(derr, engine.ErrQueueFull):
		st := r.shards[ent.shard].Stats()
		return ent.shard, &QueueFullError{
			Shard: ent.shard, Depth: st.QueueDepth, Capacity: r.shards[ent.shard].QueueCapacity(),
		}
	}
	// ErrUnknownID from the engine (a concurrent delete won the race) or
	// ErrClosed: the registry entry, if any remains, belongs to whoever
	// owns the ID now.
	return ent.shard, derr
}

// ordOf returns a document's global submission ordinal — the merge
// tie-break. Unknown IDs (can only happen for hand-built snapshots) rank
// last.
func (r *Router) ordOf(id string) int {
	if v, ok := r.ids.Load(id); ok {
		return int(v.(idEntry).ord)
	}
	return int(int64(1) << 62)
}

// SearchSparse fans the raw query term counts out to every shard
// concurrently, merges the per-shard exact top-n under (score desc, global
// ordinal asc), and returns the merged top-n with the per-shard generation
// vector that fully determines it. Results are byte-identical to a single
// engine over the same corpus (parity-pinned). Counts, not a projected q̂,
// are what is scattered: while a compaction lands shard by shard the
// shards sit on different bases, so each snapshot projects against its own
// model — 2·nnz(q)·k flops apiece.
func (r *Router) SearchSparse(q sparse.Vec, n int) ([]Hit, []uint64) {
	snaps := r.snapshots()
	gens := generations(snaps)
	if len(snaps) == 1 {
		return r.hitsFromShard(snaps[0], 0, snaps[0].RankTopSparse(q, n)), gens
	}
	perShard := make([][]core.Ranked, len(snaps))
	var wg sync.WaitGroup
	for s := range snaps {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			perShard[s] = snaps[s].RankTopSparse(q, n)
		}(s)
	}
	wg.Wait()
	return r.merge(snaps, perShard, n), gens
}

// Search is SearchSparse for a dense raw query vector.
func (r *Router) Search(raw []float64, n int) ([]Hit, []uint64) {
	return r.SearchSparse(sparse.Compress(raw), n)
}

// SearchBatchSparse scatters the WHOLE batch to every shard — each shard
// runs its own TopKBatch over it (one gemm on exact engines, the screened
// scan fanned across the queries otherwise) — then merges per query row.
// Identical results to calling SearchSparse per query.
func (r *Router) SearchBatchSparse(qs []sparse.Vec, n int) ([][]Hit, []uint64) {
	snaps := r.snapshots()
	gens := generations(snaps)
	if len(qs) == 0 {
		return nil, gens
	}
	if len(snaps) == 1 {
		ranked := snaps[0].RankBatchSparse(qs, n)
		out := make([][]Hit, len(ranked))
		for q, row := range ranked {
			out[q] = r.hitsFromShard(snaps[0], 0, row)
		}
		return out, gens
	}
	perShard := make([][][]core.Ranked, len(snaps))
	var wg sync.WaitGroup
	for s := range snaps {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			perShard[s] = snaps[s].RankBatchSparse(qs, n)
		}(s)
	}
	wg.Wait()
	out := make([][]Hit, len(qs))
	rows := make([][]core.Ranked, len(snaps))
	for q := range qs {
		for s := range snaps {
			rows[s] = perShard[s][q]
		}
		out[q] = r.merge(snaps, rows, n)
	}
	return out, gens
}

// SearchBatch is SearchBatchSparse for dense raw query vectors.
func (r *Router) SearchBatch(raws [][]float64, n int) ([][]Hit, []uint64) {
	return r.SearchBatchSparse(sparse.CompressAll(raws), n)
}

// hitsFromShard is the single-shard fast path: no ordinal translation —
// the shard's own (score desc, local row asc) order IS the global order.
func (r *Router) hitsFromShard(snap *engine.Snapshot, s int, ranked []core.Ranked) []Hit {
	out := make([]Hit, len(ranked))
	for i, rk := range ranked {
		doc := snap.Doc(rk.Doc)
		out[i] = Hit{ID: doc.ID, Text: doc.Text, Score: rk.Score, Shard: s}
	}
	return out
}

// merge translates each shard's local rows to (global ordinal, score)
// items and merges them through rank.MergeTopK — the same helper the
// in-engine selector barrier uses — under the same strict total order.
//
// A doc can be missing from the ID registry while still visible here: a
// concurrent delete releases the registry entry, but a reader holding the
// pre-delete snapshot legitimately serves the row for a little longer.
// Those transient rows get unique synthetic ordinals past every real one —
// they must never alias each other in byOrd (two docs collapsing onto one
// hit breaks the merged order), and their relative tie-break is moot: the
// next snapshot excludes them entirely.
func (r *Router) merge(snaps []*engine.Snapshot, perShard [][]core.Ranked, n int) []Hit {
	lists := make([][]rank.Item, len(perShard))
	byOrd := make(map[int]Hit, n*len(perShard))
	unreg := int(int64(1) << 62)
	for s, ranked := range perShard {
		items := make([]rank.Item, len(ranked))
		for i, rk := range ranked {
			doc := snaps[s].Doc(rk.Doc)
			ord := r.ordOf(doc.ID)
			if _, taken := byOrd[ord]; taken && ord >= int(int64(1)<<62) {
				unreg++
				ord = unreg
			}
			items[i] = rank.Item{Doc: ord, Score: rk.Score}
			byOrd[ord] = Hit{ID: doc.ID, Text: doc.Text, Score: rk.Score, Shard: s}
		}
		lists[s] = items
	}
	merged := rank.MergeTopK(n, lists...)
	out := make([]Hit, len(merged))
	for i, it := range merged {
		out[i] = byOrd[it.Doc]
	}
	return out
}

// Stats aggregates every shard's pipeline stats.
func (r *Router) Stats() Stats {
	st := Stats{
		Shards:      len(r.shards),
		Generations: make([]uint64, len(r.shards)),
		Compacting:  r.compacting.Load(),
		Stats:       engine.Stats{Screening: true},
		PerShard:    make([]ShardStats, len(r.shards)),
	}
	for s, e := range r.shards {
		es := e.Stats()
		st.PerShard[s] = ShardStats{Shard: s, Stats: es}
		st.Generations[s] = es.Generation
		st.Add(es)
	}
	st.Compactions = r.compactions.Load()
	return st
}

// Close stops accepting submissions, settles the compaction monitor,
// then drains every shard in parallel — the drain ordering documented in
// docs/SERVING.md: no new work, no half-landed coordinated compaction,
// then per-shard queue drains (every acknowledged document is in some
// shard's final snapshot). Idempotent; ctx bounds the wait.
func (r *Router) Close(ctx context.Context) error {
	r.closeMu.Lock()
	already := r.closed
	r.closed = true
	r.closeMu.Unlock()
	if !already && r.monitorStop != nil {
		close(r.monitorStop)
		<-r.monitorDone
	}
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for s, e := range r.shards {
		wg.Add(1)
		go func(s int, e *engine.Engine) {
			defer wg.Done()
			errs[s] = e.Close(ctx)
		}(s, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
