// Package engine is the snapshot-isolated serving core behind the HTTP
// server: reads never block on writes, the shape §5.4's NETLIB deployment
// needs once the database grows by folding-in (§4.3) while queries keep
// arriving.
//
// The design is a single-writer copy-on-write pipeline:
//
//   - Readers load an immutable *Snapshot (model + docs + normalized
//     scoring cache) through one atomic pointer load and never take a
//     lock — a snapshot, once published, is never mutated.
//   - All mutation lives in one background updater goroutine fed by a
//     bounded queue. Each batch tick it drains the queue, folds the whole
//     batch into a SharedClone of the current model with one FoldInDocs
//     call (Eq 7), extends the scoring cache by just the new rows, and
//     publishes the successor snapshot.
//   - Folding-in corrupts V's orthogonality (§4.3). The engine never
//     decides to repair it on its own: its owner (the shard router, whose
//     monitor watches the global DocOrthogonality) freezes the compaction
//     inputs with BeginExternalCompaction, computes the SVD-update
//     (Eq 10) off to the side from the last pure-SVD base and everything
//     folded since, and lands it with FinishExternalCompaction. Reads —
//     and further fold-ins — continue on the current snapshots
//     throughout; when the compaction lands, documents folded in the
//     meantime are re-folded onto the compacted base and the result is
//     published, so orthogonality drops back to zero without the service
//     ever pausing.
//
// Backpressure is explicit: a full queue rejects submissions immediately
// (the HTTP layer maps that to 503 + Retry-After), and Close drains every
// accepted fold-in before returning, so an acknowledged-or-queued document
// is never lost on graceful shutdown.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/rank"
)

// Exported error sentinels; the HTTP layer switches on these.
var (
	// ErrQueueFull means the fold-in queue is at capacity; retry later.
	ErrQueueFull = errors.New("engine: fold-in queue full")
	// ErrDuplicateID means a submitted document ID already exists.
	ErrDuplicateID = errors.New("engine: duplicate document id")
	// ErrClosed means the engine is shutting down or closed.
	ErrClosed = errors.New("engine: closed")
	// ErrUnknownID means a delete named a document ID that does not exist
	// (never submitted, or already deleted).
	ErrUnknownID = errors.New("engine: unknown document id")
)

// Config parameterizes the update pipeline. The zero value gets sensible
// defaults from New.
type Config struct {
	// QueueSize bounds the fold-in queue (default 256). Submissions beyond
	// it fail fast with ErrQueueFull.
	QueueSize int
	// BatchTick is the batching window: the updater drains the queue and
	// folds one batch per tick (default 2ms).
	BatchTick time.Duration
	// CompactThreshold is the DocOrthogonality (‖V̂ᵀV̂−I‖_F, §4.3) level
	// above which an SVD-update compaction is triggered; 0 (or negative)
	// disables automatic compaction. The engine itself never reads it:
	// the shard router's monitor does, measuring the loss over all shards
	// and driving the external-compaction protocol below.
	CompactThreshold float64
	// Logf receives diagnostics (default: discard).
	Logf func(format string, args ...any)
	// DisableScreening turns off the float32 screening mirror: scoring
	// caches are built with rank.NewEngineExact, so every query runs the
	// pure float64 path. Results are byte-identical either way — this is
	// an operational opt-out (a third less cache memory, simpler
	// performance profile), not a correctness knob.
	DisableScreening bool
	// DisableIVF turns off the cluster index over the screening mirror:
	// queries screen every row instead of pruning whole cells. Implied by
	// DisableScreening (the index lives on the mirror). Like screening,
	// exact-mode results are byte-identical either way.
	DisableIVF bool
	// IVFClusters overrides the cell count of the cluster index
	// (default ⌈√n⌉).
	IVFClusters int
	// IVFNProbe caps how many cells a query scans — the opt-in
	// approximate mode. 0 keeps queries exact: cells are pruned only when
	// the certified bound proves they cannot reach the top-k.
	IVFNProbe int
	// IVFRebuildFraction is the share of rows k-means has not seen — the
	// unclustered tail plus rows placed by nearest centroid when
	// compactions carried the index — above which a background k-means
	// rebuild is triggered (default 0.25; negative disables size-triggered
	// rebuilds).
	IVFRebuildFraction float64
	// IVFMinRows is the smallest collection the engine bothers indexing
	// (default rank.DefaultIVFMinRows).
	IVFMinRows int
	// CompactionStrategy selects the SVD-update algorithm compaction uses:
	// core.StrategyOBrien (exact dense inner SVD, the default) or
	// core.StrategyGK (Golub–Kahan projections, Vecharynski–Saad). Both
	// pass the same parity suite; GK bounds the inner SVD independently of
	// how many documents a compaction absorbs.
	CompactionStrategy core.UpdateStrategy
	// GKRank is the Golub–Kahan projection rank for StrategyGK; 0 means
	// core.DefaultGKRank. Ignored under StrategyOBrien.
	GKRank int

	// The remaining fields exist for snapshot restore (shard.Restore):
	// they let New resume a persisted engine's counters, tombstones and
	// cluster cells. Leave them zero for a fresh engine.

	// RestoredIVF, when non-nil, is the cell membership of a persisted
	// cluster index. New builds the scoring cache from model.V as for a
	// fresh engine and, where it would run k-means for the initial index,
	// certifies this membership instead (rank.Engine.IVFFromParts); its
	// Cents, Radius and NProbe are not read.
	RestoredIVF *rank.IVFParts
	// InitialGen, when nonzero, seeds the snapshot generation counter so
	// generations keep increasing monotonically across a save/load cycle.
	InitialGen uint64
	// RestoredDead lists tombstoned rows from the persisted snapshot:
	// physically present in the model and collection, excluded from every
	// query, folded out by the next compaction. Their document IDs are
	// not registered (a deleted ID is released for resubmission).
	RestoredDead []int
	// RestoredNextID, when nonzero, resumes the auto-ID counter so
	// generated IDs ("doc-N") never collide with pre-save assignments.
	RestoredNextID int
}

// Stats is a point-in-time view of the pipeline — the one declaration of
// every pipeline counter: shard.Stats embeds it for the tier totals and
// for each per-shard block, and /stats encodes it through these tags.
type Stats struct {
	Generation  uint64 `json:"generation"`
	QueueDepth  int    `json:"queue_depth"`
	Compactions int64  `json:"compactions"`
	// Compacting is reported once for the tier (shard.Stats), not per
	// shard: compactions are coordinated.
	Compacting bool `json:"-"`
	// Documents counts live documents — physical rows minus tombstones.
	Documents       int `json:"documents"`
	FoldedDocuments int `json:"folded_documents"`
	// Tombstones counts deleted documents still physically present in the
	// serving snapshot (excluded from every query); the next compaction
	// folds them out.
	Tombstones int `json:"tombstones"`
	// Screening reports whether the serving scoring cache carries the
	// float32 screening mirror (false when Config.DisableScreening).
	Screening bool `json:"screening"`
	// MirrorMaxEps is the worst per-row quantization residual of the
	// screening mirror — the scalar every screening bound is built from
	// (0 without a mirror).
	MirrorMaxEps float64 `json:"mirror_max_eps"`
	// IVFClusters is the cell count of the serving cluster index (0 when
	// the snapshot carries no index).
	IVFClusters int `json:"ivf_clusters"`
	// IVFUnclusteredTail is how many rows sit past the indexed prefix —
	// appended since the last (re)build and always scanned. Grows with
	// fold-ins, resets when a k-means rebuild or a compaction lands.
	IVFUnclusteredTail int `json:"ivf_unclustered_tail"`
	// IVFRebuilds counts k-means cluster-index builds that landed
	// (including the initial one); carrying the index across a compaction
	// is not a rebuild.
	IVFRebuilds int64 `json:"ivf_rebuilds"`
	// IVFPlacedRows counts rows placed in a cell by nearest centroid —
	// when a compaction carried the index over — since the last k-means
	// build. With IVFUnclusteredTail it is what k-means has not seen, and
	// their sum past IVFRebuildFraction·n schedules a rebuild.
	IVFPlacedRows int64 `json:"ivf_placed_rows"`
	// Cumulative query-path counters since the engine started. Queries
	// counts ranked queries (batch rows count individually); the other
	// three accumulate the per-query ScreenStats, so e.g.
	// RescoreCandidates/Queries is the mean float64 rescore width and
	// ClustersScanned/Queries the mean cells visited.
	Queries           int64 `json:"queries"`
	RescoreCandidates int64 `json:"rescore_candidates"`
	ClustersScanned   int64 `json:"clusters_scanned"`
	ScannedRows       int64 `json:"scanned_rows"`
}

// Add folds one shard's stats into a tier total: counters and gauges
// sum, Generation and MirrorMaxEps take the maximum, Screening holds
// only while every shard screens (start the total from Screening: true).
func (st *Stats) Add(o Stats) {
	st.Generation = max(st.Generation, o.Generation)
	st.QueueDepth += o.QueueDepth
	st.Compactions += o.Compactions
	st.Documents += o.Documents
	st.FoldedDocuments += o.FoldedDocuments
	st.Tombstones += o.Tombstones
	st.Screening = st.Screening && o.Screening
	st.MirrorMaxEps = max(st.MirrorMaxEps, o.MirrorMaxEps)
	st.IVFClusters += o.IVFClusters
	st.IVFUnclusteredTail += o.IVFUnclusteredTail
	st.IVFRebuilds += o.IVFRebuilds
	st.IVFPlacedRows += o.IVFPlacedRows
	st.Queries += o.Queries
	st.RescoreCandidates += o.RescoreCandidates
	st.ClustersScanned += o.ClustersScanned
	st.ScannedRows += o.ScannedRows
}

type submitResult struct {
	id  string
	err error
}

type submission struct {
	doc corpus.Document
	// del marks a deletion: doc.ID names the target and doc.Text is empty.
	// Deletes ride the same FIFO queue as fold-ins so a submit→delete (or
	// delete→resubmit) pair applies in the order the client issued it.
	del   bool
	reply chan submitResult
}

// frozenCompaction records what an in-flight compaction froze, so
// finishCompaction can remap every surviving row from the old serving
// coordinates to the compacted ones. Rows [0,baseN) are the base,
// [baseN,baseN+pendingCount) the frozen pending entries.
type frozenCompaction struct {
	baseN        int
	pendingCount int
	// deadBase lists tombstoned base rows (ascending) at freeze time; the
	// compaction folds them out when the downdate is feasible.
	deadBase []int
	// deadPending marks frozen pending entries already deleted: they are
	// dropped from the pending list instead of being absorbed.
	deadPending []bool
}

// ivfResult is a finished background cluster-index build. epoch tags the
// coordinate generation the build read; compaction rotates every
// coordinate, so a build from a previous epoch is discarded instead of
// being attached to rows it no longer describes.
type ivfResult struct {
	idx   *rank.IVFIndex
	epoch uint64
}

// queryCounters accumulates per-query ScreenStats across the engine's
// lifetime. Snapshots carry a pointer to their engine's counters so the
// lock-free read path can record without reaching back into the engine.
type queryCounters struct {
	queries         atomic.Int64
	rescored        atomic.Int64
	clustersScanned atomic.Int64
	scannedRows     atomic.Int64
}

func (c *queryCounters) record(st rank.ScreenStats) {
	if c == nil {
		return
	}
	c.queries.Add(1)
	c.rescored.Add(int64(st.Candidates))
	c.clustersScanned.Add(int64(st.ClustersScanned))
	c.scannedRows.Add(int64(st.ScannedRows))
}

// Engine owns the serving snapshot and the background update pipeline.
type Engine struct {
	cfg  Config
	coll *corpus.Collection

	snap atomic.Pointer[Snapshot]

	queue chan submission
	// ops carries control requests (external compaction begin/finish)
	// onto the updater goroutine, so they compose with batch application
	// under the same single-owner discipline as everything else.
	ops  chan func()
	stop chan struct{}
	done chan struct{}

	// closeMu orders Submit's enqueue against Close: Submit holds the read
	// side while it checks closed and sends, so once Close holds the write
	// side no further submission can slip into the queue and the final
	// drain is complete. Readers never touch this (or any) lock.
	closeMu sync.RWMutex
	//lsilint:guardedby closeMu
	closed bool

	compactions atomic.Int64
	compacting  atomic.Bool

	ivfRebuilds atomic.Int64
	ivfBuilding atomic.Bool
	counters    queryCounters

	// Updater-goroutine-owned state (no locking: single owner).
	base    *core.Model       // last pure-SVD model; nil disables compaction
	pending []corpus.Document // docs folded in since base was computed
	// rowOf maps live document ID → row in the current snapshot; it doubles
	// as the duplicate-ID registry, and deletion removes the entry so a
	// deleted ID can be resubmitted.
	rowOf map[string]int
	// deadRows holds tombstoned rows (current snapshot coordinates):
	// physically present, excluded from every query via Snapshot.Dead,
	// folded out by the next compaction.
	deadRows map[int]struct{}
	// frozen is the in-flight compaction's freeze record; nil exactly
	// when no compaction is running (compacting mirrors it for Stats).
	frozen *frozenCompaction
	nextID int
	ivfCh  chan ivfResult
	// coordsEpoch tags the current coordinate generation; compaction
	// increments it, invalidating in-flight index builds.
	coordsEpoch uint64
}

// New builds an engine serving the given collection and model and starts
// its background updater. The model must have been built from the
// collection and must not be mutated by the caller afterwards; the engine
// owns it from here on.
func New(coll *corpus.Collection, model *core.Model, cfg Config) (*Engine, error) {
	if model.NumDocs() != coll.Size() {
		return nil, fmt.Errorf("engine: model has %d docs, collection %d", model.NumDocs(), coll.Size())
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.BatchTick <= 0 {
		cfg.BatchTick = 2 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.IVFRebuildFraction == 0 {
		cfg.IVFRebuildFraction = 0.25
	}
	if cfg.DisableScreening {
		cfg.DisableIVF = true // the index lives on the mirror
	}
	e := &Engine{
		cfg:      cfg,
		coll:     coll,
		queue:    make(chan submission, cfg.QueueSize),
		ops:      make(chan func(), 4),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		rowOf:    make(map[string]int, coll.Size()),
		deadRows: make(map[int]struct{}),
		ivfCh:    make(chan ivfResult, 1),
	}
	docs := append([]corpus.Document(nil), coll.Docs...)
	for _, row := range cfg.RestoredDead {
		if row < 0 || row >= len(docs) {
			return nil, fmt.Errorf("engine: restored dead row %d outside [0, %d)", row, len(docs))
		}
		e.deadRows[row] = struct{}{}
	}
	for i, d := range docs {
		// A tombstoned row's ID was released at delete time — and may since
		// have been resubmitted as a live row — so dead rows must not claim
		// a registry entry.
		if _, dead := e.deadRows[i]; dead {
			continue
		}
		e.rowOf[d.ID] = i
	}
	e.nextID = len(docs)
	if cfg.RestoredNextID > 0 {
		e.nextID = cfg.RestoredNextID
	}
	if model.FoldedDocs() == 0 && model.FoldedTerms() == 0 {
		e.base = model
	}
	// The scoring cache is derived from V on every path, restore included:
	// O(n·k), and bit-identical to the cache a snapshot's engine served.
	eng := e.newRankEngine(model.V)
	if !cfg.DisableIVF {
		// The initial index builds synchronously: the engine is not serving
		// yet, and starting with an indexed snapshot means the very first
		// query already prunes. A restored membership replaces only the
		// k-means step, so it is not counted as a rebuild.
		if cfg.RestoredIVF != nil {
			with, err := eng.IVFFromParts(cfg.RestoredIVF, e.ivfConfig())
			if err != nil {
				return nil, fmt.Errorf("engine: restored cluster index: %w", err)
			}
			eng = with
		} else if with := eng.BuildIVF(e.ivfConfig()); with != eng {
			eng = with
			e.ivfRebuilds.Add(1)
		}
	}
	gen := uint64(1)
	if cfg.InitialGen > 0 {
		gen = cfg.InitialGen
	}
	e.snap.Store(&Snapshot{Gen: gen, Model: model, Eng: eng, Docs: docs,
		Dead: deadSkip(len(docs), e.deadRows), counters: &e.counters})
	go e.run()
	return e, nil
}

// ivfConfig maps the engine config onto the rank-layer build knobs.
func (e *Engine) ivfConfig() rank.IVFConfig {
	return rank.IVFConfig{
		Clusters: e.cfg.IVFClusters,
		NProbe:   e.cfg.IVFNProbe,
		MinRows:  e.cfg.IVFMinRows,
	}
}

// newRankEngine builds a scoring cache for freshly computed document
// coordinates, honoring the screening opt-out. Fold-in extensions go
// through rank.Engine.Extend instead, which preserves whichever mode the
// chain started with.
func (e *Engine) newRankEngine(v *dense.Matrix) *rank.Engine {
	if e.cfg.DisableScreening {
		return rank.NewEngineExact(v)
	}
	return rank.NewEngine(v)
}

// Snapshot returns the current serving snapshot: one atomic load, no
// locks, safe to use for the rest of the request even while newer
// snapshots are published.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Stats reports pipeline state for monitoring.
func (e *Engine) Stats() Stats {
	s := e.Snapshot()
	st := Stats{
		Generation:        s.Gen,
		QueueDepth:        len(e.queue),
		Compactions:       e.compactions.Load(),
		Compacting:        e.compacting.Load(),
		Documents:         s.LiveDocs(),
		FoldedDocuments:   s.Model.FoldedDocs(),
		Tombstones:        s.Tombstones(),
		Screening:         s.Eng.Screening(),
		MirrorMaxEps:      s.Eng.MirrorMaxEps(),
		IVFRebuilds:       e.ivfRebuilds.Load(),
		IVFPlacedRows:     int64(s.Eng.IVFPlaced()),
		Queries:           e.counters.queries.Load(),
		RescoreCandidates: e.counters.rescored.Load(),
		ClustersScanned:   e.counters.clustersScanned.Load(),
		ScannedRows:       e.counters.scannedRows.Load(),
	}
	if clusters, rows, ok := s.Eng.IVF(); ok {
		st.IVFClusters = clusters
		st.IVFUnclusteredTail = s.Eng.NumDocs() - rows
	}
	return st
}

// Submit queues one document for fold-in and waits for the batch that
// contains it to be published, returning the (possibly auto-assigned)
// document ID. A full queue fails immediately with ErrQueueFull. If ctx
// expires while waiting, Submit returns ctx.Err() — but the document has
// been accepted and will still be folded in (and drained on Close).
func (e *Engine) Submit(ctx context.Context, doc corpus.Document) (string, error) {
	sub := submission{doc: doc, reply: make(chan submitResult, 1)}
	if err := e.enqueue(sub); err != nil {
		return "", err
	}
	select {
	case res := <-sub.reply:
		return res.id, res.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// Delete queues a tombstone for the named document and waits for the
// batch that applies it. Once applied the document is invisible to every
// query and /stats count; its physical row is folded out of the model at
// the next compaction. Deleting an unknown (or already deleted) ID
// returns ErrUnknownID. Deletes share the fold-in queue, so submit and
// delete of the same ID apply in submission order, and a deleted ID can
// be resubmitted as a fresh document. If ctx expires while waiting, the
// delete has been accepted and will still apply.
func (e *Engine) Delete(ctx context.Context, id string) error {
	sub := submission{doc: corpus.Document{ID: id}, del: true, reply: make(chan submitResult, 1)}
	if err := e.enqueue(sub); err != nil {
		return err
	}
	select {
	case res := <-sub.reply:
		return res.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enqueue places a submission on the queue under the read side of
// closeMu, so it can never race past Close's final drain.
func (e *Engine) enqueue(sub submission) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case e.queue <- sub:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops accepting submissions, drains every queued fold-in and
// shuts the updater down. An in-flight compaction is not waited for: its
// owner sees ErrClosed from FinishExternalCompaction instead. It is
// idempotent; ctx bounds the wait.
func (e *Engine) Close(ctx context.Context) error {
	e.closeMu.Lock()
	already := e.closed
	e.closed = true
	e.closeMu.Unlock()
	if !already {
		close(e.stop)
	}
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the single updater goroutine: the only mutator of serving state.
func (e *Engine) run() {
	defer close(e.done)
	ticker := time.NewTicker(e.cfg.BatchTick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.applyBatch(e.drainQueue())
		case fn := <-e.ops:
			fn()
		case res := <-e.ivfCh:
			e.finishIVFBuild(res)
		case <-e.stop:
			// Final drain: Close holds closeMu exclusively before
			// signalling, so nothing can be added behind this drain.
			e.applyBatch(e.drainQueue())
			e.drainOps()
			if e.ivfBuilding.Load() {
				e.finishIVFBuild(<-e.ivfCh)
			}
			return
		}
	}
}

// drainOps runs every queued control request without blocking — the
// shutdown path's guarantee that an accepted op either runs or its
// sender observes ErrClosed, never silence.
func (e *Engine) drainOps() {
	for {
		select {
		case fn := <-e.ops:
			fn()
		default:
			return
		}
	}
}

// onUpdater runs fn on the updater goroutine and waits for it to finish.
// Returns ErrClosed when the engine shut down before fn could run.
func (e *Engine) onUpdater(fn func()) error {
	ran := make(chan struct{})
	select {
	case e.ops <- func() { fn(); close(ran) }:
	case <-e.done:
		return ErrClosed
	}
	select {
	case <-ran:
		return nil
	case <-e.done:
		// The updater exited after accepting the op; its final drain runs
		// everything still queued, so check once more before reporting.
		select {
		case <-ran:
			return nil
		default:
			return ErrClosed
		}
	}
}

// drainQueue empties the queue without blocking; items stay in the
// channel between ticks so queue-full backpressure is honest.
func (e *Engine) drainQueue() []submission {
	var batch []submission
	for {
		select {
		case sub := <-e.queue:
			batch = append(batch, sub)
		default:
			return batch
		}
	}
}

// deadSkip builds the published tombstone set for n rows; nil when there
// are no tombstones, so the delete-free read path stays on the unskipped
// kernels.
func deadSkip(n int, dead map[int]struct{}) rank.Skip {
	if len(dead) == 0 {
		return nil
	}
	s := rank.NewSkip(n)
	for r := range dead {
		s.Set(r)
	}
	return s
}

// applyBatch validates a batch in queue order — fold-ins and deletes
// interleaved exactly as submitted — folds the accepted documents into a
// copy-on-write clone of the current model as one FoldInDocs call, builds
// the successor tombstone set, publishes the successor snapshot, and
// acknowledges every submitter.
func (e *Engine) applyBatch(batch []submission) {
	if len(batch) == 0 {
		return
	}
	cur := e.snap.Load()
	oldN := cur.NumDocs()
	accepted := make([]corpus.Document, 0, len(batch))
	replies := make([]submission, 0, len(batch))
	deleted := 0
	for _, sub := range batch {
		if sub.del {
			row, ok := e.rowOf[sub.doc.ID]
			if !ok {
				sub.reply <- submitResult{err: fmt.Errorf("%w: %q", ErrUnknownID, sub.doc.ID)}
				continue
			}
			// The row stays physically in place (a doc accepted earlier in
			// this very batch included — it still folds in below) but is
			// tombstoned before the successor snapshot publishes, and the ID
			// is released so it can be resubmitted.
			delete(e.rowOf, sub.doc.ID)
			e.deadRows[row] = struct{}{}
			deleted++
			replies = append(replies, sub)
			continue
		}
		id := sub.doc.ID
		if id == "" {
			// Auto-assigned IDs skip over anything a user already took, so
			// they can never collide with an explicit ID.
			for {
				id = fmt.Sprintf("doc-%d", e.nextID)
				e.nextID++
				if _, taken := e.rowOf[id]; !taken {
					break
				}
			}
		} else if _, dup := e.rowOf[id]; dup {
			sub.reply <- submitResult{err: fmt.Errorf("%w: %q", ErrDuplicateID, id)}
			continue
		}
		// Row assignment is eager so a delete later in the same batch can
		// resolve this document.
		e.rowOf[id] = oldN + len(accepted)
		accepted = append(accepted, corpus.Document{ID: id, Text: sub.doc.Text})
		sub.doc.ID = id
		replies = append(replies, sub)
	}
	if len(accepted) > 0 {
		next := cur.Model.SharedClone()
		next.FoldInDocs(e.coll.DocVectors(accepted))
		eng := cur.Eng.Extend(next.V.Slice(oldN, next.NumDocs(), 0, next.V.Cols))
		docs := append(cur.Docs, accepted...)
		e.snap.Store(&Snapshot{Gen: cur.Gen + 1, Model: next, Eng: eng, Docs: docs,
			Dead: deadSkip(len(docs), e.deadRows), counters: &e.counters})
		e.pending = append(e.pending, accepted...)
	} else if deleted > 0 {
		// Pure-delete batch: same model and cache, new tombstone set.
		e.snap.Store(&Snapshot{Gen: cur.Gen + 1, Model: cur.Model, Eng: cur.Eng, Docs: cur.Docs,
			Dead: deadSkip(oldN, e.deadRows), counters: &e.counters})
	}
	for _, sub := range replies {
		sub.reply <- submitResult{id: sub.doc.ID}
	}
	e.maybeRebuildIVF()
}

// maybeRebuildIVF launches a background k-means rebuild when the rows
// k-means has not seen — the unclustered tail, appended since the last
// build and scanned by every query, plus the rows compactions placed by
// nearest centroid — have grown past the configured fraction of the
// collection. At most one build runs at a time; it reads only rows below
// the captured engine's own length, which are immutable, so fold-ins and
// reads proceed untouched while it runs. A stale index is a performance
// matter only (the tail is always scanned), so there is no urgency
// anywhere in this path.
func (e *Engine) maybeRebuildIVF() {
	if e.cfg.DisableIVF || e.cfg.IVFRebuildFraction < 0 || e.ivfBuilding.Load() {
		return
	}
	select {
	case <-e.stop: // shutting down: don't start work nobody will serve
		return
	default:
	}
	eng := e.snap.Load().Eng
	n := eng.NumDocs()
	minRows := e.cfg.IVFMinRows
	if minRows <= 0 {
		minRows = rank.DefaultIVFMinRows
	}
	if n < minRows {
		return
	}
	_, clusteredRows, ok := eng.IVF()
	unseen := n - clusteredRows + eng.IVFPlaced()
	if ok && float64(unseen) <= e.cfg.IVFRebuildFraction*float64(n) {
		return
	}
	cfg := e.ivfConfig()
	epoch := e.coordsEpoch
	e.ivfBuilding.Store(true)
	go func() {
		e.ivfCh <- ivfResult{idx: eng.BuildIVFIndex(cfg), epoch: epoch}
	}()
}

// finishIVFBuild attaches a landed background index build to the current
// snapshot and publishes the result. Builds from a previous coordinate
// epoch (a compaction landed while they ran) are discarded — the rows
// they clustered no longer exist in that form.
func (e *Engine) finishIVFBuild(res ivfResult) {
	e.ivfBuilding.Store(false)
	if res.epoch != e.coordsEpoch {
		// A compaction landed while this build ran, so the rows it
		// clustered no longer exist in that coordinate frame. The
		// post-compaction trigger was a no-op while this build was marked
		// in flight, so the re-check here is what gets the fresh epoch its
		// index when no further fold-in arrives.
		e.maybeRebuildIVF()
		return
	}
	if res.idx == nil {
		return
	}
	cur := e.snap.Load()
	// The build's source engine is an ancestor of cur.Eng in the same
	// append-only chain (no compaction this epoch), so the index's row
	// prefix is intact and rows beyond it form the new unclustered tail.
	eng := cur.Eng.WithIVFIndex(res.idx)
	e.snap.Store(&Snapshot{Gen: cur.Gen + 1, Model: cur.Model, Eng: eng, Docs: cur.Docs,
		Dead: cur.Dead, counters: &e.counters})
	e.ivfRebuilds.Add(1)
	// Fold-ins that landed while the build ran may already exceed the
	// tail threshold again.
	e.maybeRebuildIVF()
}

// freezeDead splits the current tombstones along the frozen prefix:
// ascending dead base rows, a dead mask over the frozen pending entries.
// Rows tombstoned after the freeze are outside both and survive the
// compaction (remapped, still dead) to be resolved next cycle.
func (e *Engine) freezeDead() (deadBase []int, deadPending []bool) {
	baseN := e.base.NumDocs()
	deadPending = make([]bool, len(e.pending))
	for row := range e.deadRows {
		if row < baseN {
			deadBase = append(deadBase, row)
		} else {
			deadPending[row-baseN] = true
		}
	}
	sort.Ints(deadBase)
	return deadBase, deadPending
}

// FreezeForSnapshot captures, in one updater turn, the serving snapshot
// together with the updater-private auto-ID counter — the pair a
// persistent snapshot needs to be mutually consistent. The engine keeps
// serving; callers wanting a quiesced capture stop submitting first.
func (e *Engine) FreezeForSnapshot() (*Snapshot, int, error) {
	var snap *Snapshot
	var nextID int
	if err := e.onUpdater(func() {
		snap = e.snap.Load()
		nextID = e.nextID
	}); err != nil {
		return nil, 0, err
	}
	return snap, nextID, nil
}

// ExternalCompaction is the frozen per-engine state a coordinated
// (router-driven) compaction works from: the last pure-SVD base, the
// documents its V rows describe, and everything folded in since. The
// engine keeps serving — and keeps folding — while the owner computes;
// documents that arrive in the meantime are reconciled by
// FinishExternalCompaction.
type ExternalCompaction struct {
	// Base is a copy-on-write clone of the last pure-SVD model
	// (FoldedDocs() == 0); safe to read while the engine keeps serving.
	Base *core.Model
	// BaseDocs lists the documents Base's V rows describe, in row order.
	BaseDocs []corpus.Document
	// Pending lists the documents folded in since Base, in fold order —
	// the docs the coordinated plan must absorb (except those marked dead
	// in DeadPending, which are dropped).
	Pending []corpus.Document
	// DeadBaseRows lists tombstoned rows of Base in ascending order. The
	// owner folds them out with a global downdate plan when feasible and
	// reports the outcome through FinishExternalCompaction's downdated
	// flag; rows left in place stay tombstoned.
	DeadBaseRows []int
	// DeadPending marks Pending entries already deleted: the plan must
	// exclude them (their rows are dropped, never absorbed).
	DeadPending []bool
}

// External-compaction error sentinels.
var (
	// ErrCompactionActive means a compaction is already in flight.
	ErrCompactionActive = errors.New("engine: compaction already in flight")
	// ErrNoBase means the engine has no pure-SVD base to update from (its
	// initial model already contained folded rows).
	ErrNoBase = errors.New("engine: no SVD base to compact from")
	// ErrNotCompacting means Finish/Abort was called with no external
	// compaction in flight.
	ErrNotCompacting = errors.New("engine: no external compaction in flight")
)

// BeginExternalCompaction freezes the engine's compaction inputs and
// marks a compaction in flight until FinishExternalCompaction or
// AbortExternalCompaction. The engine keeps serving and folding
// throughout; only one compaction may be active.
func (e *Engine) BeginExternalCompaction() (*ExternalCompaction, error) {
	var st *ExternalCompaction
	var err error
	if opErr := e.onUpdater(func() {
		switch {
		case e.base == nil:
			err = ErrNoBase
		case e.frozen != nil:
			err = ErrCompactionActive
		default:
			e.compacting.Store(true)
			deadBase, deadPending := e.freezeDead()
			e.frozen = &frozenCompaction{
				baseN:        e.base.NumDocs(),
				pendingCount: len(e.pending),
				deadBase:     deadBase,
				deadPending:  deadPending,
			}
			docs := e.snap.Load().Docs
			st = &ExternalCompaction{
				Base:         e.base.SharedClone(),
				BaseDocs:     docs[:e.base.NumDocs()],
				Pending:      append([]corpus.Document(nil), e.pending...),
				DeadBaseRows: deadBase,
				DeadPending:  deadPending,
			}
		}
	}); opErr != nil {
		return nil, opErr
	}
	return st, err
}

// FinishExternalCompaction lands an externally computed compaction:
// model must be the frozen Base with exactly the frozen live Pending
// docs absorbed (FoldedDocs() == 0, absorbed = len(Pending) — dead
// entries count as resolved, not folded) and, when downdated is true,
// the frozen DeadBaseRows folded out. Documents folded (or deleted) while
// the owner computed are re-folded onto the new base and the result is
// published as the next generation.
func (e *Engine) FinishExternalCompaction(model *core.Model, absorbed int, downdated bool) error {
	var err error
	if opErr := e.onUpdater(func() {
		if e.frozen == nil {
			err = ErrNotCompacting
			return
		}
		e.finishCompaction(model, absorbed, downdated)
	}); opErr != nil {
		return opErr
	}
	return err
}

// AbortExternalCompaction releases the in-flight marker without
// publishing anything — the owner failed or shut down mid-plan. A no-op
// when no external compaction is active or the engine already closed.
func (e *Engine) AbortExternalCompaction() {
	_ = e.onUpdater(func() {
		e.frozen = nil
		e.compacting.Store(false)
	})
}

// QueueCapacity reports the fold-in queue's capacity — the denominator
// for per-shard backpressure accounting (Retry-After estimation).
func (e *Engine) QueueCapacity() int { return cap(e.queue) }

// finishCompaction reconciles a landed compaction with whatever folded in
// (or died) while it ran: resolved rows — downdated dead base rows and
// dropped dead pending entries — leave the document list, every surviving
// row is remapped to its compacted index, documents beyond the compacted
// prefix are re-folded onto the fresh base, and the result is published
// as the next generation.
func (e *Engine) finishCompaction(model *core.Model, count int, downdated bool) {
	e.compacting.Store(false)
	fr := e.frozen
	e.frozen = nil
	cur := e.snap.Load()
	// Remap old serving rows to compacted rows: −1 for rows the compaction
	// resolved (downdated base rows, dropped dead pending entries);
	// everything else keeps its relative order.
	newRow := make([]int, cur.NumDocs())
	next := 0
	db, fp := 0, fr.baseN
	for old := range newRow {
		switch {
		case old < fr.baseN && downdated && db < len(fr.deadBase) && fr.deadBase[db] == old:
			db++
			newRow[old] = -1
		case old >= fr.baseN && old < fp+fr.pendingCount && fr.deadPending[old-fr.baseN]:
			newRow[old] = -1
		default:
			newRow[old] = next
			next++
		}
	}
	docs := make([]corpus.Document, 0, next)
	for old, d := range cur.Docs {
		if newRow[old] >= 0 {
			docs = append(docs, d)
		}
	}
	for id, old := range e.rowOf {
		e.rowOf[id] = newRow[old]
	}
	// Tombstones the compaction resolved disappear; deaths after the
	// freeze survive remapped and are folded out next cycle.
	dead := make(map[int]struct{}, len(e.deadRows))
	for old := range e.deadRows {
		if nr := newRow[old]; nr >= 0 {
			dead[nr] = struct{}{}
		}
	}
	e.deadRows = dead
	leftover := append([]corpus.Document(nil), e.pending[count:]...)
	serving := model.SharedClone()
	if len(leftover) > 0 {
		serving.FoldInDocs(e.coll.DocVectors(leftover))
	}
	// Compaction rotated every document coordinate, so the scoring cache
	// is rebuilt rather than extended — and the coordinate epoch advances,
	// invalidating any in-flight k-means build against the old coordinates.
	// Which rows share a cell hardly moves under the rotation, so the
	// cluster index is carried through the remap and re-certified rather
	// than re-clustered; the old unclustered tail is placed by nearest
	// centroid and counts toward the next k-means (the carried index keeps
	// that count, so it survives a save and restore with the index).
	e.coordsEpoch++
	eng := e.newRankEngine(serving.V)
	if !e.cfg.DisableIVF {
		eng = eng.CarryIVF(cur.Eng, newRow, e.cfg.IVFMinRows)
	}
	e.snap.Store(&Snapshot{Gen: cur.Gen + 1, Model: serving, Eng: eng, Docs: docs,
		Dead: deadSkip(len(docs), e.deadRows), counters: &e.counters})
	e.base = model
	e.pending = leftover
	e.compactions.Add(1)
	e.maybeRebuildIVF()
}
