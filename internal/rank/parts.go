package rank

import (
	"fmt"
	"slices"
)

// Parts is an exported, read-only view of an engine's derived arrays:
// the float32 mirror, the int8 tier, their residuals and bounds, and the
// cluster index in flat form. Tests use it to pin those arrays bit for
// bit, and tools use it to measure what a scoring cache holds. Every
// array here is a function of the float64 rows except the index's cell
// membership, which k-means produced; that membership is what a
// persisted engine keeps, and IVFFromParts attaches it again.
type Parts struct {
	Rows, Cols int

	// Float32 screening tier; Mirror is nil on exact-only engines.
	Mirror []float32
	Eps    []float64
	MaxEps float64

	// Int8 coarse tier; Q8 is nil when the engine carries no int8 tier.
	Q8      []int8
	Scale   []float64
	Eps8    []float64
	MaxEps8 float64

	// Optional IVF cluster index; nil when the engine scans flat.
	IVF *IVFParts
}

// IVFParts flattens an IVFIndex: the ragged members lists become one
// []int32 plus per-cell counts.
type IVFParts struct {
	Rows, Dim, NProbe int
	Cents             []float64 // clusters×dim, row-major
	Radius            []float64 // one per cluster
	MemberCounts      []int32   // one per cluster; sums to Rows
	Members           []int32   // flattened cell membership, cell-major
	Placed            int       // rows placed by nearest centroid since the k-means build
}

// Parts extracts the engine's derived arrays as views (no copies). The
// engine must not be Extended while the caller is still reading them.
func (e *Engine) Parts() *Parts {
	p := &Parts{Rows: e.docs.Rows, Cols: e.docs.Cols}
	if e.mir != nil {
		p.Mirror = e.mir.docs.Data
		p.Eps = e.mir.eps
		p.MaxEps = e.mir.maxEps
		if e.mir.q8 != nil {
			p.Q8 = e.mir.q8.Data
			p.Scale = e.mir.scale
			p.Eps8 = e.mir.eps8
			p.MaxEps8 = e.mir.maxEps8
		}
	}
	if e.ivf != nil {
		p.IVF = e.ivf.Parts()
	}
	return p
}

// Parts flattens the index; the returned slices view the index's own
// storage except Members/MemberCounts, which are re-packed (the
// in-memory form is ragged).
func (ix *IVFIndex) Parts() *IVFParts {
	p := &IVFParts{
		Rows:         ix.rows,
		Dim:          ix.dim,
		NProbe:       ix.nprobe,
		Cents:        ix.cents.Data,
		Radius:       ix.radius,
		MemberCounts: make([]int32, len(ix.members)),
		Placed:       ix.placed,
	}
	total := 0
	for c, ms := range ix.members {
		p.MemberCounts[c] = int32(len(ms))
		total += len(ms)
	}
	p.Members = make([]int32, 0, total)
	for _, ms := range ix.members {
		p.Members = append(p.Members, ms...)
	}
	return p
}

// IVFFromParts is BuildIVF with the k-means step replaced by a given cell
// membership — the saved one of a persisted index. p.MemberCounts and
// p.Members must partition the row prefix [0, p.Rows) exactly: a list
// that dropped or duplicated a row would silently exclude documents
// from (or double-count them in) every certified cell bound. The
// centroids and radii are then certified against the receiver's float64
// rows, as a build certifies the partition k-means returns, so the
// membership of an engine over the same rows reproduces that engine's
// index bit for bit. cfg supplies the probe budget and the build floor
// (Clusters and Seed shape only k-means); p's Cents, Radius and NProbe
// are not read. The membership is checked first, and the receiver comes
// back unchanged when it is exact-only or below the floor, as BuildIVF's
// does.
func (e *Engine) IVFFromParts(p *IVFParts, cfg IVFConfig) (*Engine, error) {
	if p.Rows < 0 || p.Rows > e.docs.Rows || p.Dim != e.docs.Cols || p.Placed < 0 {
		return nil, fmt.Errorf("rank: IVF header rows=%d dim=%d placed=%d does not fit an engine of %d×%d",
			p.Rows, p.Dim, p.Placed, e.docs.Rows, e.docs.Cols)
	}
	if len(p.Members) != p.Rows {
		return nil, fmt.Errorf("rank: IVF members list %d entries, want %d", len(p.Members), p.Rows)
	}
	seen := make([]bool, p.Rows)
	for _, m := range p.Members {
		if m < 0 || int(m) >= p.Rows {
			return nil, fmt.Errorf("rank: IVF member %d outside [0, %d)", m, p.Rows)
		}
		if seen[m] {
			return nil, fmt.Errorf("rank: IVF member %d appears in two cells", m)
		}
		seen[m] = true
	}
	// The lists are carved from an owned copy: p.Members may view a
	// snapshot file its caller closes later.
	backing := slices.Clone(p.Members)
	members := make([][]int32, len(p.MemberCounts))
	off := 0
	for c, cnt := range p.MemberCounts {
		if cnt < 0 || off+int(cnt) > len(backing) {
			return nil, fmt.Errorf("rank: IVF cell %d count %d overruns members list", c, cnt)
		}
		members[c] = backing[off : off+int(cnt) : off+int(cnt)]
		off += int(cnt)
	}
	if off != len(backing) {
		return nil, fmt.Errorf("rank: IVF cell counts sum to %d, want %d", off, len(backing))
	}
	minRows := cfg.MinRows
	if minRows <= 0 {
		minRows = DefaultIVFMinRows
	}
	if e.mir == nil || e.docs.Rows < minRows {
		return e, nil
	}
	cents, radius := certifyClusters(e.docs, p.Rows, members)
	return e.WithIVFIndex(&IVFIndex{rows: p.Rows, dim: p.Dim, nprobe: max(cfg.NProbe, 0),
		cents: cents, radius: radius, members: members, placed: p.Placed}), nil
}
