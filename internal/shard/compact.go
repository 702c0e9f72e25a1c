// Coordinated cross-shard compaction.
//
// A fold-in appends rows without touching the basis, so shards drift
// apart only in the harmless sense of accumulating non-orthogonal rows.
// An SVD-update (core.UpdateDocs) is different: it re-diagonalizes, so
// if each shard updated independently each would end up scoring in its
// own rotated latent space and cross-shard scores would stop being
// comparable — exactness dies. The router therefore runs compaction as
// one global plan applied locally:
//
//  1. Freeze every shard (engine.BeginExternalCompaction): each hands
//     back its pure-SVD base (shared U/S across shards by construction)
//     and its pending fold-ins, and keeps serving its current snapshot.
//  2. Order the union of pending documents by global submission ordinal
//     — exactly the fold order a single engine over the concatenated
//     corpus would have used — and compute ONE core.PlanDocsUpdate from
//     it: new U, new S, a k×k' rotation for existing rows, and the k'
//     coordinates of the pending rows.
//  3. Each shard rotates its own V block. Row rotation is row-local and
//     dense.Mul is per-row deterministic, so a shard's rotated block is
//     bit-identical to the corresponding rows of the rotated global V.
//  4. Resolve fixSigns globally: each block reports, per column, its
//     largest-|entry| candidate tagged with a canonical row key (base
//     rows first by ordinal, then pending rows by ordinal — the single
//     engine's V row order); core.CombineSignFlips picks the same
//     winner the single-model scan would, every shard flips the same
//     columns.
//  5. Each shard assembles [rotated base ; its share of VNew in its own
//     fold order], applies the plan against its base, and lands it
//     (engine.FinishExternalCompaction) — which re-folds any documents
//     that arrived during the window onto the NEW basis, bumps the
//     coordinate epoch, and rebuilds the scoring cache and IVF index.
//
// Failure handling: any error before step 5 aborts every frozen shard
// back to normal operation with nothing changed. The plan itself never
// mutates shard state until Finish.
package shard

import (
	"errors"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/engine"
)

// pendRow locates one pending document inside the frozen states: which
// shard holds it, at which local queue position, and its global
// submission ordinal.
type pendRow struct {
	shard, local int
	ord          int64
}

// pendBlockOffset ranks every pending row's canonical sign key after
// every base row's, matching the single engine's V layout (base rows
// first, then pending in fold order). A document can be pending with a
// LOWER ordinal than some base document — it arrived during a previous
// compaction window and was re-folded as leftover — so plain ordinal
// order over the union would be wrong.
const pendBlockOffset = int64(1) << 40

// Compact runs one coordinated compaction cycle synchronously and
// returns once every shard serves the updated basis (or nothing changed:
// zero pending documents is a no-op). Concurrent calls serialize; the
// background monitor uses this same entry point.
func (r *Router) Compact() error {
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	r.compacting.Store(true)
	defer r.compacting.Store(false)

	// 1. Freeze everything, or nothing.
	states := make([]*engine.ExternalCompaction, len(r.shards))
	abort := func() {
		for s, st := range states {
			if st != nil {
				r.shards[s].AbortExternalCompaction()
			}
		}
	}
	for s, e := range r.shards {
		st, err := e.BeginExternalCompaction()
		if err != nil {
			abort()
			return err
		}
		states[s] = st
	}
	liveTotal, deadPendTotal, deadBaseTotal := 0, 0, 0
	for _, st := range states {
		deadBaseTotal += len(st.DeadBaseRows)
		for _, d := range st.DeadPending {
			if d {
				deadPendTotal++
			}
		}
		liveTotal += len(st.Pending)
	}
	liveTotal -= deadPendTotal
	if liveTotal == 0 && deadPendTotal == 0 && deadBaseTotal == 0 {
		abort()
		return nil
	}

	// 2a. Global downdate plan: when tombstoned base rows exist and enough
	// live rows remain globally, ONE core.PlanDocsDowndate over the
	// ordinal-ordered live base rows folds them out; every shard applies
	// the same plan to its own live rows (row-local, bit-identical at any
	// shard count). A degenerate downdate leaves the rows tombstoned.
	bases := make([]*core.Model, len(states))
	for s, st := range states {
		bases[s] = st.Base
	}
	downdated := false
	if deadBaseTotal > 0 {
		dd, err := r.downdateBases(states)
		switch {
		case err == nil:
			bases = dd
			downdated = true
		case errors.Is(err, core.ErrDowndateDegenerate):
			// Keep serving through tombstones; the update below still runs.
		default:
			abort()
			return err
		}
	}

	// 2b. Global pending order = submission ordinal order over the LIVE
	// pending entries (dead ones are dropped, never absorbed), and one
	// plan under the configured strategy.
	pend := make([]pendRow, 0, liveTotal)
	for s, st := range states {
		for i, d := range st.Pending {
			if !dead(st.DeadPending, i) {
				pend = append(pend, pendRow{shard: s, local: i, ord: int64(r.ordOf(d.ID))})
			}
		}
	}
	if len(pend) == 0 {
		// Nothing to absorb: land the (possibly downdated) bases as they
		// are — the cycle only dropped dead pending entries or folded out
		// dead base rows.
		return r.land(states, bases, downdated, deadBaseTotal, 0)
	}
	sortPend(pend)
	docs := make([]corpus.Document, len(pend))
	// globalRow[s][i] is shard s's i-th pending document's row in VNew
	// (-1 for dead entries, which have no row).
	globalRow := make([][]int, len(states))
	for s, st := range states {
		globalRow[s] = make([]int, len(st.Pending))
		for i := range globalRow[s] {
			globalRow[s][i] = -1
		}
	}
	for g, p := range pend {
		docs[g] = states[p.shard].Pending[p.local]
		globalRow[p.shard][p.local] = g
	}
	opts := core.UpdateOptions{Strategy: r.cfg.Engine.CompactionStrategy, GKRank: r.cfg.Engine.GKRank}
	plan, err := bases[0].PlanDocsUpdateOpts(r.coll.DocVectors(docs), opts)
	if err != nil {
		abort()
		return err
	}

	// 3+4. Per-shard rotation and global sign resolution. Tombstoned base
	// rows (present only when the downdate was degenerate) rotate with
	// their block but are excluded from sign candidates: their registry
	// ordinals are gone, and leaving them out keeps the flip decision a
	// function of live rows only — identical at every shard count.
	rots := make([]*dense.Matrix, len(states))
	cands := make([][]core.SignCandidate, 0, len(states)+1)
	for s, st := range states {
		rots[s] = plan.RotateDocs(bases[s].V)
		liveDocs, liveRows := liveBase(st, downdated)
		ords := make([]int64, len(liveDocs))
		for i, d := range liveDocs {
			ords[i] = int64(r.ordOf(d.ID))
		}
		cands = append(cands, core.SignCandidates(gatherRows(rots[s], liveRows), ords))
	}
	newOrds := make([]int64, len(pend))
	for g, p := range pend {
		newOrds[g] = pendBlockOffset + p.ord
	}
	cands = append(cands, core.SignCandidates(plan.VNew, newOrds))
	flip := core.CombineSignFlips(cands...)
	plan.ApplySigns(flip)

	// 5. Assemble and land per shard.
	for s := range states {
		dense.FlipColumns(rots[s], flip)
		mine := dense.New(countLive(globalRow[s]), plan.VNew.Cols)
		j := 0
		for _, g := range globalRow[s] {
			if g >= 0 {
				copy(mine.Row(j), plan.VNew.Row(g))
				j++
			}
		}
		bases[s] = plan.Apply(bases[s], rots[s].AugmentRows(mine))
	}
	return r.land(states, bases, downdated, deadBaseTotal, len(pend))
}

// dead reports mask[i], tolerating a short or nil mask.
func dead(mask []bool, i int) bool { return i < len(mask) && mask[i] }

func countLive(globalRow []int) int {
	n := 0
	for _, g := range globalRow {
		if g >= 0 {
			n++
		}
	}
	return n
}

// liveBase lists shard st's live base documents and their local rows in
// the (possibly downdated) base: after a downdate the dead rows are
// already gone, so every row is live; otherwise the dead rows are still
// present and are filtered out.
func liveBase(st *engine.ExternalCompaction, downdated bool) ([]corpus.Document, []int) {
	if downdated || len(st.DeadBaseRows) == 0 {
		if downdated && len(st.DeadBaseRows) > 0 {
			docs := make([]corpus.Document, 0, len(st.BaseDocs)-len(st.DeadBaseRows))
			rows := make([]int, 0, cap(docs))
			j := 0
			for i, d := range st.BaseDocs {
				if j < len(st.DeadBaseRows) && st.DeadBaseRows[j] == i {
					j++
					continue
				}
				rows = append(rows, len(docs))
				docs = append(docs, d)
			}
			return docs, rows
		}
		rows := make([]int, len(st.BaseDocs))
		for i := range rows {
			rows[i] = i
		}
		return st.BaseDocs, rows
	}
	docs := make([]corpus.Document, 0, len(st.BaseDocs)-len(st.DeadBaseRows))
	rows := make([]int, 0, len(st.BaseDocs)-len(st.DeadBaseRows))
	j := 0
	for i, d := range st.BaseDocs {
		if j < len(st.DeadBaseRows) && st.DeadBaseRows[j] == i {
			j++
			continue
		}
		docs = append(docs, d)
		rows = append(rows, i)
	}
	return docs, rows
}

// gatherRows copies the listed rows of m into a fresh matrix (identity
// fast path when every row is listed in order).
func gatherRows(m *dense.Matrix, rows []int) *dense.Matrix {
	if len(rows) == m.Rows {
		return m
	}
	out := dense.New(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// downdateBases computes one global downdate plan over the ordinal-
// ordered live base rows of every shard and applies it per shard,
// returning the downdated bases. Sign resolution uses each row's
// position in the global live ordering as its canonical key — the same
// convention core.DowndateDocs uses on a single model.
func (r *Router) downdateBases(states []*engine.ExternalCompaction) ([]*core.Model, error) {
	type liveRef struct {
		shard, liveIdx int
		row            int
		ord            int64
	}
	var refs []liveRef
	localRows := make([][]int, len(states))
	for s, st := range states {
		j := 0
		for i, d := range st.BaseDocs {
			if j < len(st.DeadBaseRows) && st.DeadBaseRows[j] == i {
				j++
				continue
			}
			refs = append(refs, liveRef{shard: s, liveIdx: len(localRows[s]), row: i, ord: int64(r.ordOf(d.ID))})
			localRows[s] = append(localRows[s], i)
		}
	}
	// Ordinal sort (insertion sort, same as sortPend: sets are modest and
	// nearly sorted already).
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].ord < refs[j-1].ord; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	k := states[0].Base.V.Cols
	glive := dense.New(len(refs), k)
	pos := make([][]int64, len(states))
	for s := range states {
		pos[s] = make([]int64, len(localRows[s]))
	}
	for g, ref := range refs {
		copy(glive.Row(g), states[ref.shard].Base.V.Row(ref.row))
		pos[ref.shard][ref.liveIdx] = int64(g)
	}
	plan, err := states[0].Base.PlanDocsDowndate(glive)
	if err != nil {
		return nil, err
	}
	rots := make([]*dense.Matrix, len(states))
	cands := make([][]core.SignCandidate, len(states))
	for s, st := range states {
		rots[s] = plan.RotateDocs(gatherRows(st.Base.V, localRows[s]))
		cands[s] = core.SignCandidates(rots[s], pos[s])
	}
	flip := core.CombineSignFlips(cands...)
	plan.ApplySigns(flip)
	out := make([]*core.Model, len(states))
	for s, st := range states {
		dense.FlipColumns(rots[s], flip)
		out[s] = plan.Apply(st.Base, rots[s])
	}
	return out, nil
}

// land finishes every shard with its final model. Past the first
// successful Finish there is no abort path for earlier shards (they
// already landed, which is fine — the basis is shared either way); the
// rest abort back to their frozen-but-serving state on error.
func (r *Router) land(states []*engine.ExternalCompaction, models []*core.Model, downdated bool, deadBase, absorbed int) error {
	for s, st := range states {
		if err := r.shards[s].FinishExternalCompaction(models[s], len(st.Pending), downdated); err != nil {
			for t := s + 1; t < len(states); t++ {
				r.shards[t].AbortExternalCompaction()
			}
			return err
		}
	}
	if deadBase > 0 && !downdated {
		// The fold-out couldn't run (too few live rows globally): stop the
		// monitor's tombstone trigger from spinning until activity changes
		// the geometry.
		r.deadStuck.Store(true)
	}
	r.compactions.Add(1)
	r.cfg.Logf("shard: coordinated compaction absorbed %d documents (folded out %d tombstones) across %d shards",
		absorbed, deadBase+func() int {
			n := 0
			for _, st := range states {
				for _, d := range st.DeadPending {
					if d {
						n++
					}
				}
			}
			return n
		}(), len(r.shards))
	return nil
}

// sortPend orders pending rows by global submission ordinal (insertion
// sort: pending sets are small — bounded by shards × queue capacity).
func sortPend(p []pendRow) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j].ord < p[j-1].ord; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// orthogonality is the GLOBAL ‖VᵀV − I‖_F over the conceptual
// concatenated document matrix, assembled from per-shard Gram blocks:
// VᵀV = Σ_s V_sᵀV_s. Matches dense.OrthogonalityError on the
// concatenation without materializing it.
func (r *Router) orthogonality(snaps []*engine.Snapshot) float64 {
	var g *dense.Matrix
	for _, sn := range snaps {
		gs := dense.MulT(sn.Model.V, sn.Model.V)
		if g == nil {
			g = gs
			continue
		}
		for i := range g.Data {
			g.Data[i] += gs.Data[i]
		}
	}
	if g == nil {
		return 0
	}
	for i := 0; i < g.Rows; i++ {
		g.Data[i*g.Cols+i] -= 1
	}
	return g.FrobeniusNorm()
}

// startMonitor launches the compaction monitor when the configured
// threshold asks for one.
func (r *Router) startMonitor() {
	if r.cfg.Engine.CompactThreshold > 0 {
		r.monitorStop = make(chan struct{})
		r.monitorDone = make(chan struct{})
		go r.monitor()
	}
}

// monitor is the system's one compaction trigger: each tick it compacts
// when tombstones are waiting to be folded out or the global
// orthogonality loss has crossed Engine.CompactThreshold. The loss is
// re-evaluated only when some shard published since the last
// evaluation: snapshots are immutable and every publish advances its
// shard's generation, so an unchanged generation vector has an unchanged
// loss, and an idle tier pays no Gram per tick. (The vector is kept
// rather than the snapshots, which would pin a superseded generation's
// arrays.)
func (r *Router) monitor() {
	defer close(r.monitorDone)
	ticker := time.NewTicker(r.checkInterval())
	defer ticker.Stop()
	var lastGens []uint64
	var lastLoss float64
	for {
		select {
		case <-r.monitorStop:
			return
		case <-ticker.C:
			snaps := r.snapshots()
			folded, tombs := 0, 0
			for _, sn := range snaps {
				folded += sn.Model.FoldedDocs()
				tombs += sn.Tombstones()
			}
			// Tombstones force a cycle (deletes should not wait for
			// orthogonality drift) unless a previous cycle proved the
			// fold-out degenerate; fold-ins go through the drift threshold.
			needDead := tombs > 0 && !r.deadStuck.Load()
			if !needDead && folded == 0 {
				continue
			}
			if !needDead {
				if gens := generations(snaps); !slices.Equal(gens, lastGens) {
					lastGens, lastLoss = gens, r.orthogonality(snaps)
					r.monitorEvals.Add(1)
				}
				if lastLoss <= r.cfg.Engine.CompactThreshold {
					continue
				}
			}
			if err := r.Compact(); err != nil {
				r.cfg.Logf("shard: coordinated compaction failed: %v", err)
			}
		}
	}
}

func (r *Router) checkInterval() time.Duration {
	if r.cfg.CompactCheck > 0 {
		return r.cfg.CompactCheck
	}
	d := 2 * r.cfg.Engine.BatchTick
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}
