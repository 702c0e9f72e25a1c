package rank

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dense"
)

// Cluster-pruned exact top-k: an IVF-style coarse index over the float32
// screening mirror. Deterministic k-means partitions the clustered row
// prefix into nc ≈ √n cells; each cell stores a float64 unit centroid ĉ,
// a certified member radius r_c, and its member row list. A query first
// ranks cells by the certified upper bound
//
//	ub_c = fl(qn·ĉ) + r_c + ubSlack ≥ fl64(qn·v_i)   for every member i,
//
// which follows from Cauchy–Schwarz on qn·v = qn·ĉ + qn·(v − ĉ):
//
//	qn·v_i ≤ qn·ĉ + ‖qn‖·‖v_i − ĉ‖ ≤ qn·ĉ + r_c      (real arithmetic)
//
// with r_c = max_i ‖v_i − ĉ‖ inflated by boundSlack at build time, and
// ubSlack absorbing the float64 summation rounding of both dot products
// (γ64 each, ‖qn‖, ‖v‖, ‖ĉ‖ ≤ 1 + ulps — see ivfUBSlack).
//
// The scan (scan in screen.go) visits cells in decreasing ub order after
// the always-scanned un-indexed rows and stops at the first cell whose ub
// falls below the kth largest certified lower bound seen; rows appended
// by Extend after the index was built are un-indexed, so a stale index
// only costs speed, never exactness — byte-identical to NewEngineExact at
// every point of the Extend chain (pinned by test). The opt-in
// approximate mode caps the sweep at nprobe cells, trading recall for
// latency; the certified threshold still applies within the scanned
// subset, so approximate results are the exact top-k of the probed rows.
// A compaction carries the partition over instead of re-clustering
// (CarryIVF): the bound needs only certified centroids and radii for
// whatever partition is at hand, never a k-means one.

// IVFConfig parameterizes BuildIVF/BuildIVFIndex. The zero value gets
// production defaults: √n clusters, exact search, a fixed seed, and the
// DefaultIVFMinRows build floor.
type IVFConfig struct {
	// Clusters is the number of k-means cells; 0 picks ⌈√n⌉.
	Clusters int
	// NProbe caps how many cells a query scans (approximate mode);
	// 0 scans until the certified bound proves no cell can contribute,
	// which keeps results exact.
	NProbe int
	// Seed feeds the deterministic k-means PRNG; 0 uses a fixed default.
	Seed uint64
	// MinRows is the smallest collection worth indexing; 0 uses
	// DefaultIVFMinRows. Below the floor BuildIVFIndex returns nil.
	MinRows int
}

// DefaultIVFMinRows is the build floor: below it a full mirror scan is
// already cheap and index maintenance would cost more than it saves.
const DefaultIVFMinRows = 4096

const (
	// ivfSampleFactor bounds the k-means training sample at
	// clusters×factor rows — the standard coarse-quantizer recipe: the
	// centroids only need the data's shape, not every row.
	ivfSampleFactor = 64
	// ivfMaxIters bounds Lloyd iterations; the loop exits early when the
	// sample assignment stabilizes.
	ivfMaxIters = 8
	// ivfAssignBlock is how many rows one assignment gemm covers, keeping
	// the score block a few MB regardless of collection size.
	ivfAssignBlock = 4096
	// ivfSeedDefault is the fixed k-means seed (splitmix64's golden-ratio
	// increment) — index builds are reproducible byte for byte.
	ivfSeedDefault = 0x9E3779B97F4A7C15
)

// IVFIndex is an immutable cluster index over a row prefix of an engine
// chain. It stores no row data — only centroids, certified radii, and
// member id lists — so it is shared across Extend successors (the prefix
// rows it describes are append-only) and re-attached after background
// rebuilds via WithIVFIndex.
//
//lsilint:immutable
type IVFIndex struct {
	rows   int // row prefix covered; rows beyond are the unclustered tail
	dim    int
	nprobe int
	// cents holds one float64 unit (or zero) centroid per cell; the
	// certified bound is evaluated against these, never the float32
	// k-means centroids that shaped the partition.
	cents *dense.Matrix
	// radius[c] ≥ max over members ‖v64_i − ĉ_c‖, boundSlack-inflated.
	radius []float64
	// members[c] lists the rows of cell c; every row in [0, rows) appears
	// in exactly one cell.
	members [][]int32
	// placed counts the rows compactions assigned to a cell by nearest
	// centroid rather than by k-means, summed over every carry since the
	// k-means build this membership descends from (0 on a build).
	placed int
}

// Clusters returns the number of k-means cells.
func (ix *IVFIndex) Clusters() int { return len(ix.members) }

// Rows returns the clustered row prefix the index covers.
func (ix *IVFIndex) Rows() int { return ix.rows }

// NProbe returns the configured cluster-scan cap (0 = exact).
func (ix *IVFIndex) NProbe() int { return ix.nprobe }

// splitmix64 is the deterministic PRNG behind k-means seeding and
// sampling: no global rand, no wall clock, identical sequences on every
// build with the same seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

func (s *splitmix64) float64() float64 { return float64(s.next()>>11) * 0x1p-53 }

// BuildIVF returns a new Engine sharing this engine's storage with a
// freshly built cluster index attached — the convenience form of
// BuildIVFIndex + WithIVFIndex. It returns the receiver unchanged when
// the engine is exact-only or below the build floor.
func (e *Engine) BuildIVF(cfg IVFConfig) *Engine {
	return e.WithIVFIndex(e.BuildIVFIndex(cfg))
}

// BuildIVFIndex runs deterministic k-means over the engine's current
// rows and returns the certified cluster index, or nil when the engine
// has no mirror to cluster or is below the build floor. The build only
// reads rows below the engine's own length, so it is safe to run in the
// background while successors extend the shared tail.
func (e *Engine) BuildIVFIndex(cfg IVFConfig) *IVFIndex {
	if e.mir == nil || e.docs.Cols == 0 {
		return nil
	}
	minRows := cfg.MinRows
	if minRows <= 0 {
		minRows = DefaultIVFMinRows
	}
	n := e.docs.Rows
	if n < minRows {
		return nil
	}
	nc := cfg.Clusters
	if nc <= 0 {
		nc = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if nc > n {
		nc = n
	}
	if nc < 1 {
		nc = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = ivfSeedDefault
	}
	nprobe := cfg.NProbe
	if nprobe < 0 {
		nprobe = 0
	}
	members := kmeansMembers(e.mir.docs, n, nc, seed)
	cents, radius := certifyClusters(e.docs, n, members)
	return &IVFIndex{rows: n, dim: e.docs.Cols, nprobe: nprobe,
		cents: cents, radius: radius, members: members}
}

// CarryIVF returns the receiver with from's cluster index carried across
// a compaction instead of re-clustered. newRow maps each of from's rows to
// its row in the receiver, or −1 for a row the compaction resolved. Each
// cell keeps its surviving members; receiver rows no carried member
// reaches (from's unclustered tail, remapped) are placed in the cell whose
// float64 centroid — certified from the carried members in the receiver's
// coordinates — has the largest dot product with them, the lowest cell id
// on ties. Every cell is then certified against the receiver's float64
// rows, so the bound is exact for whatever partition results: carrying
// costs only tightness, never correctness. The probe budget carries over.
// The receiver comes back unchanged when from has no index, the receiver
// is exact-only, or it is below the minRows floor (0 = DefaultIVFMinRows).
func (e *Engine) CarryIVF(from *Engine, newRow []int, minRows int) *Engine {
	old := from.ivf
	if minRows <= 0 {
		minRows = DefaultIVFMinRows
	}
	n := e.docs.Rows
	if old == nil || e.mir == nil || n == 0 || n < minRows {
		return e
	}
	if len(newRow) != from.docs.Rows || old.dim != e.docs.Cols {
		panic(fmt.Sprintf("rank: CarryIVF remap has %d rows for %d, index dim %d for %d",
			len(newRow), from.docs.Rows, old.dim, e.docs.Cols))
	}
	cell := make([]int32, n)
	for i := range cell {
		cell[i] = -1
	}
	for c, mem := range old.members {
		for _, i := range mem {
			if r := newRow[i]; r >= 0 {
				if r >= n || cell[r] >= 0 {
					panic(fmt.Sprintf("rank: CarryIVF maps row %d to %d, outside [0, %d) or taken", i, r, n))
				}
				cell[r] = int32(c)
			}
		}
	}
	var todo []int
	for r, c := range cell {
		if c < 0 {
			todo = append(todo, r)
		}
	}
	members := membersOf(cell, len(old.members))
	if len(todo) > 0 {
		// Centroids of the carried members in the new coordinates place the
		// rest; the old centroids live in the old coordinates.
		cents, _ := certifyClusters(e.docs, n, members)
		parallelRange(len(todo), len(todo)*cents.Rows*e.docs.Cols >= scoreParallelCutoff, func(lo, hi int) {
			dots := make([]float64, cents.Rows)
			for _, r := range todo[lo:hi] {
				dense.DotRows(dots, cents, e.docs.Row(r))
				best := 0
				for c := 1; c < len(dots); c++ {
					if dots[c] > dots[best] {
						best = c
					}
				}
				cell[r] = int32(best)
			}
		})
		members = membersOf(cell, len(old.members))
	}
	cents, radius := certifyClusters(e.docs, n, members)
	ne := *e
	ne.ivf = &IVFIndex{rows: n, dim: e.docs.Cols, nprobe: old.nprobe,
		cents: cents, radius: radius, members: members, placed: old.placed + len(todo)}
	return &ne
}

// membersOf turns a per-row cell assignment into per-cell member lists in
// ascending row order, backed by one allocation; rows assigned −1 are
// left out.
func membersOf(cell []int32, nc int) [][]int32 {
	counts := make([]int, nc)
	total := 0
	for _, c := range cell {
		if c >= 0 {
			counts[c]++
			total++
		}
	}
	backing := make([]int32, total)
	members := make([][]int32, nc)
	off := 0
	for c := range members {
		members[c] = backing[off : off : off+counts[c]]
		off += counts[c]
	}
	for i, c := range cell {
		if c >= 0 {
			members[c] = append(members[c], int32(i))
		}
	}
	return members
}

// WithIVFIndex returns an engine view with idx attached, sharing every
// backing array with the receiver. The index may have been built by this
// engine or by any ancestor in the same append-only chain — rows beyond
// idx.Rows() form the always-scanned unclustered tail. A nil index (or
// an exact-only engine) returns the receiver unchanged.
func (e *Engine) WithIVFIndex(idx *IVFIndex) *Engine {
	if idx == nil || e.mir == nil {
		return e
	}
	if idx.rows > e.docs.Rows || idx.dim != e.docs.Cols {
		panic(fmt.Sprintf("rank: IVF index covers %d rows × %d dims, engine has %d × %d",
			idx.rows, idx.dim, e.docs.Rows, e.docs.Cols))
	}
	ne := *e
	ne.ivf = idx
	return &ne
}

// IVFPlaced reports how many rows of the attached index compactions
// placed by nearest centroid since its k-means build (0 without one).
func (e *Engine) IVFPlaced() int {
	if e.ivf == nil {
		return 0
	}
	return e.ivf.placed
}

// IVF reports the attached cluster index: cell count and the clustered
// row prefix. ok is false when the engine carries no index.
func (e *Engine) IVF() (clusters, clusteredRows int, ok bool) {
	if e.ivf == nil {
		return 0, 0, false
	}
	return len(e.ivf.members), e.ivf.rows, true
}

// MirrorMaxEps returns the engine-wide worst per-row quantization
// residual of the screening mirror (0 without a mirror) — the scalar the
// server mirrors into /stats and /metrics.
func (e *Engine) MirrorMaxEps() float64 {
	if e.mir == nil {
		return 0
	}
	return e.mir.maxEps
}

// kmeansMembers partitions rows [0, n) of the mirror into nc cells:
// k-means++ seeding and Lloyd iterations over a deterministic training
// sample, then one full gemm-blocked assignment pass. Everything that
// touches row data runs in float32 (the partition only shapes
// performance); everything is deterministic for a fixed seed.
func kmeansMembers(mir32 *dense.MatrixF32, n, nc int, seed uint64) [][]int32 {
	dim := mir32.Cols
	rng := splitmix64(seed)

	// Training sample: all rows when small, else a deterministic
	// partial Fisher–Yates draw, sorted for gather locality.
	train := &dense.MatrixF32{Rows: n, Cols: dim, Data: mir32.Data[:n*dim]}
	if s := nc * ivfSampleFactor; n > s {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := 0; i < s; i++ {
			j := i + rng.intn(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		ids := perm[:s]
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		train = dense.NewF32(s, dim)
		for i, id := range ids {
			copy(train.Row(i), mir32.Row(int(id)))
		}
	}
	s := train.Rows
	trainNorm := make([]float64, s)
	for i := range trainNorm {
		r := train.Row(i)
		trainNorm[i] = float64(dense.DotF32(r, r))
	}

	// k-means++ seeding: each new centroid is drawn with probability
	// proportional to the squared distance to the nearest chosen one.
	cents := dense.NewF32(nc, dim)
	minD := make([]float64, s)
	copy(cents.Row(0), train.Row(rng.intn(s)))
	seedMinDist(minD, trainNorm, train, cents.Row(0), true)
	for j := 1; j < nc; j++ {
		var total float64
		for _, d := range minD {
			total += d
		}
		pick := s - 1
		if total > 0 {
			r := rng.float64() * total
			var acc float64
			for i, d := range minD {
				acc += d
				if acc > r {
					pick = i
					break
				}
			}
		} else {
			// Every sample row coincides with a centroid (heavy
			// duplication): fall back to a uniform draw.
			pick = rng.intn(s)
		}
		copy(cents.Row(j), train.Row(pick))
		seedMinDist(minD, trainNorm, train, cents.Row(j), false)
	}

	// Lloyd iterations on the sample. adj caches ‖c_j‖²/2 so assignment
	// is argmax(row·c − adj) — nearest centroid under squared Euclidean.
	adj := make([]float32, nc)
	refreshAdj(adj, cents)
	assign := make([]int32, s)
	prev := make([]int32, s)
	block := dense.NewF32(minInt(s, ivfAssignBlock), nc)
	sums := dense.New(nc, dim)
	counts := make([]int, nc)
	for it := 0; it < ivfMaxIters; it++ {
		assignRowsF32(train, cents, adj, assign, block)
		if it > 0 && int32SlicesEqual(assign, prev) {
			break
		}
		copy(prev, assign)
		for i := range sums.Data {
			sums.Data[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i, c := range assign {
			dense.AccumF32(sums.Row(int(c)), train.Row(i))
			counts[c]++
		}
		for c := 0; c < nc; c++ {
			if counts[c] == 0 {
				continue // empty cell keeps its previous centroid
			}
			row := sums.Row(c)
			inv := 1 / float64(counts[c])
			for i := range row {
				row[i] *= inv
			}
			dense.ConvertF32(cents.Row(c), row)
		}
		refreshAdj(adj, cents)
	}

	// Full assignment pass over every row, then a counting sort into
	// per-cell member lists.
	full := make([]int32, n)
	fullBlock := block
	if n < train.Rows || train.Rows < minInt(n, ivfAssignBlock) {
		fullBlock = dense.NewF32(minInt(n, ivfAssignBlock), nc)
	}
	assignRowsF32(&dense.MatrixF32{Rows: n, Cols: dim, Data: mir32.Data[:n*dim]},
		cents, adj, full, fullBlock)
	return membersOf(full, nc)
}

// seedMinDist folds the squared distance to a new centroid into the
// per-row minimum, sharding rows across workers — each row's value
// depends only on itself, so the result is deterministic for any worker
// count.
func seedMinDist(minD, trainNorm []float64, train *dense.MatrixF32, cent []float32, first bool) {
	cn := float64(dense.DotF32(cent, cent))
	update := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := trainNorm[i] + cn - 2*float64(dense.DotF32(train.Row(i), cent))
			if d < 0 {
				d = 0
			}
			if first || d < minD[i] {
				minD[i] = d
			}
		}
	}
	parallelRange(len(minD), len(minD)*train.Cols >= scoreParallelCutoff, update)
}

// assignRowsF32 writes each row's nearest-centroid cell into out, one
// gemm-blocked sweep: scores = rows·centsᵀ via the tiled parallel
// float32 gemm, then a fixed-order argmax per row.
func assignRowsF32(rows, cents *dense.MatrixF32, adj []float32, out []int32, block *dense.MatrixF32) {
	bs := block.Rows
	for lo := 0; lo < rows.Rows; lo += bs {
		hi := lo + bs
		if hi > rows.Rows {
			hi = rows.Rows
		}
		view := &dense.MatrixF32{Rows: hi - lo, Cols: rows.Cols,
			Data: rows.Data[lo*rows.Cols : hi*rows.Cols]}
		sb := block
		if view.Rows != block.Rows {
			sb = &dense.MatrixF32{Rows: view.Rows, Cols: block.Cols,
				Data: block.Data[:view.Rows*block.Cols]}
		}
		dense.MulBTF32Into(sb, view, cents)
		for r := 0; r < view.Rows; r++ {
			out[lo+r] = int32(dense.ArgBestF32(sb.Row(r), adj))
		}
	}
}

func refreshAdj(adj []float32, cents *dense.MatrixF32) {
	for c := range adj {
		row := cents.Row(c)
		adj[c] = 0.5 * dense.DotF32(row, row)
	}
}

func int32SlicesEqual(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// certifyClusters computes, per cell, the float64 unit centroid and the
// certified member radius — entirely against the float64 cache, so the
// bound holds regardless of how the float32 partition was shaped. Cells
// are independent; the per-cell work is serial in member order, so the
// result is deterministic for any worker count.
func certifyClusters(docs *dense.Matrix, n int, members [][]int32) (*dense.Matrix, []float64) {
	nc := len(members)
	cents := dense.New(nc, docs.Cols)
	radius := make([]float64, nc)
	certify := func(c int) {
		mem := members[c]
		if len(mem) == 0 {
			return // zero centroid, zero radius: ub collapses to ubSlack
		}
		row := cents.Row(c)
		for _, i := range mem {
			dense.Axpy(1, docs.Row(int(i)), row)
		}
		inv := 1 / float64(len(mem))
		for j := range row {
			row[j] *= inv
		}
		dense.Normalize(row)
		var r float64
		for _, i := range mem {
			if d := dense.DistNorm2(docs.Row(int(i)), row); d > r {
				r = d
			}
		}
		radius[c] = r * boundSlack
	}
	parallelRange(nc, n*docs.Cols >= scoreParallelCutoff, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			certify(c)
		}
	})
	return cents, radius
}

// ivfUBSlack is the query-time float correction of the cluster bound:
// one γ64 for the float64 rounding of the member score fl(qn·v) and one
// for the centroid dot fl(qn·ĉ), with ‖qn‖, ‖v‖, ‖ĉ‖ ≤ 1 + a few ulps
// (all three are float64-normalized), inflated by boundSlack so the
// bound arithmetic itself cannot shave a true candidate.
func ivfUBSlack(dim int) float64 {
	n1 := float64(dim + 1)
	const u64 = 0x1p-53
	g64 := n1 * u64 / (1 - n1*u64)
	return 2 * g64 * (1 + 1e-12) * boundSlack
}

// ivfCellOrder ranks the index cells for a normalized query: certified
// upper bounds plus the deterministic decreasing-ub visit order (cell id
// ascending on bit-equal bounds), both in sc's storage.
func (e *Engine) ivfCellOrder(qn []float64, sc *scanScratch) ([]float64, []int) {
	idx := e.ivf
	nc := len(idx.members)
	if cap(sc.ubs) < nc {
		sc.ubs = make([]float64, nc)
		sc.order = make([]int, nc)
	}
	ubs, order := sc.ubs[:nc], sc.order[:nc]
	ubSlack := ivfUBSlack(e.docs.Cols)
	dense.DotRows(ubs, idx.cents, qn)
	for c := range ubs {
		ubs[c] = ubs[c] + idx.radius[c] + ubSlack
		order[c] = c
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(ubs[b], ubs[a]); c != 0 {
			return c
		}
		return a - b
	})
	return ubs, order
}

// TopKProbe is TopK with an explicit cluster-probe budget: at most
// nprobe IVF cells are scanned (0 = unlimited = exact), letting one
// engine serve both exact and approximate traffic. Without an index (or
// below the screening cutoff) there are no cells to cap, so results are
// exact regardless of nprobe. The returned stats report what the scan
// did.
func (e *Engine) TopKProbe(q []float64, k, nprobe int) ([]Item, ScreenStats) {
	return e.TopKProbeSkip(q, k, nprobe, nil)
}

// TopKProbeSkip is TopKProbe with the rows in skip excluded — the
// tombstone-aware form of the explicit-probe entry point, and the one
// dispatch every single-query entry point lands on.
func (e *Engine) TopKProbeSkip(q []float64, k, nprobe int, skip Skip) ([]Item, ScreenStats) {
	if len(q) != e.docs.Cols {
		panic(fmt.Sprintf("rank: query dim %d want %d", len(q), e.docs.Cols))
	}
	n := e.docs.Rows
	if live := n - skip.CountUpTo(n); k > live {
		k = live
	}
	if k <= 0 {
		return []Item{}, ScreenStats{}
	}
	qn := normalizeCopy(q)
	if e.screenable(k) {
		return e.scan(qn, k, nprobe, skip, true)
	}
	return e.topKExact(qn, k, skip), ScreenStats{}
}
