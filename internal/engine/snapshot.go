package engine

import (
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/rank"
	"repro/internal/sparse"
)

// Snapshot is one immutable, internally consistent view of the serving
// state: the LSI model, the document list it ranks over, and the
// unit-normalized scoring cache built from the model's document vectors.
// Readers obtain a Snapshot with a single atomic load and use it without
// any locking; the background updater publishes successors but never
// mutates a snapshot that has been published.
//
// Invariants: Model.NumDocs() == len(Docs) == Eng.NumDocs(), and Gen
// strictly increases across publications.
//
//lsilint:immutable
type Snapshot struct {
	// Gen is the publication generation: 1 for the initial snapshot,
	// incremented by every fold-in batch and every compaction.
	Gen uint64
	// Model is the LSI model; treated as immutable once published.
	Model *core.Model
	// Eng is the snapshot-owned normalized document cache — the norm cache
	// lives on the snapshot, not behind the model's internal lock, so the
	// read path touches no mutex at all.
	Eng *rank.Engine
	// Docs maps document index → document; the slice prefix is shared
	// across snapshots (the updater only appends between compactions).
	Docs []corpus.Document
	// Dead marks tombstoned rows: deleted documents still physically
	// present (they leave at the next compaction) but excluded from every
	// ranking — the skip set threads through the rank kernels so a dead
	// row is never scored, never seeds a threshold, and never surfaces.
	// Nil when nothing is deleted, which keeps the delete-free read path
	// on the unskipped kernels.
	Dead rank.Skip
	// counters points at the owning engine's cumulative query counters;
	// the lock-free read path records per-query ScreenStats here without
	// reaching back into the engine. Nil on hand-built snapshots.
	counters *queryCounters
}

// NumDocs returns how many document rows the snapshot holds physically,
// tombstones included.
func (s *Snapshot) NumDocs() int { return len(s.Docs) }

// Tombstones counts deleted-but-present rows.
func (s *Snapshot) Tombstones() int { return s.Dead.CountUpTo(len(s.Docs)) }

// LiveDocs counts the documents queries can actually return.
func (s *Snapshot) LiveDocs() int { return len(s.Docs) - s.Tombstones() }

// Doc returns document j.
func (s *Snapshot) Doc(j int) corpus.Document { return s.Docs[j] }

// RankTopSparse projects raw query term counts against this snapshot's
// own model and returns the n best documents in ranking order, scored
// against the snapshot's normalized cache. The computation is identical
// to core.Model.RankTop — same projection, same normalized matrix, same
// bounded selection — so results are byte-stable with the model's own
// scoring path; it just reads the snapshot-owned cache instead of the
// model's lock-guarded one. Tombstoned rows are excluded as if never
// inserted.
func (s *Snapshot) RankTopSparse(q sparse.Vec, n int) []core.Ranked {
	items, st := s.Eng.TopKSkipWithStats(s.Model.ProjectSparse(q, nil), n, s.Dead)
	s.counters.record(st)
	return toRanked(items)
}

// RankTop is RankTopSparse for a dense raw query vector.
func (s *Snapshot) RankTop(raw []float64, n int) []core.Ranked {
	return s.RankTopSparse(sparse.Compress(raw), n)
}

// RankBatchSparse scores a block of raw query term counts in one engine
// call — one gemm on an exact engine, the screened scan once per query
// otherwise — and returns the top n documents for each, matching
// core.Model.RankBatch.
func (s *Snapshot) RankBatchSparse(qs []sparse.Vec, n int) [][]core.Ranked {
	if len(qs) == 0 {
		return nil
	}
	qhats := dense.New(len(qs), s.Model.U.Cols)
	for i, q := range qs {
		s.Model.ProjectSparse(q, qhats.Row(i))
	}
	res, stats := s.Eng.TopKBatchSkipWithStats(qhats, n, s.Dead)
	out := make([][]core.Ranked, len(res))
	for i, items := range res {
		s.counters.record(stats[i])
		out[i] = toRanked(items)
	}
	return out
}

// RankBatch is RankBatchSparse for dense raw query vectors.
func (s *Snapshot) RankBatch(raws [][]float64, n int) [][]core.Ranked {
	return s.RankBatchSparse(sparse.CompressAll(raws), n)
}

func toRanked(items []rank.Item) []core.Ranked {
	out := make([]core.Ranked, len(items))
	for i, it := range items {
		out[i] = core.Ranked{Doc: it.Doc, Score: it.Score}
	}
	return out
}
