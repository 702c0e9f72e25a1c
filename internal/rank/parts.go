package rank

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/dense"
)

// Parts is the serialization seam between a rank.Engine and the
// snapshot container: every derived array the engine computed at build
// time, exposed as flat slices that encode to (and attach from)
// snapfile sections without copying.
//
// The float64 document cache is deliberately absent. It is rebuilt at
// restore time by unit-normalizing the model's V rows — the exact
// operation newEngine performed originally, so the reconstruction is
// bit-identical — because at 8 bytes/coordinate it is the one array
// cheaper to recompute than to page in. The mirror (4 bytes/coord),
// the int8 tier (1 byte/coord), and the residual arrays are the
// expensive artifacts; those round trip as raw bytes.
//
// Restored slices may be read-only mmap views. That is safe by
// construction: every slice here is only ever written during buildMirror
// / fillRows / BuildIVF, and restored engines skip all three. Extend on
// a restored engine always takes its copy path because the views carry
// zero spare capacity (cap == len), so the capacity-claiming CAS cannot
// hand out a tail that lives in a PROT_READ mapping.
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
// []int32 plus per-cell counts, so the whole index is three numeric
// sections and one small meta record.
type IVFParts struct {
	Rows, Dim, NProbe int
	Cents             []float64 // clusters×dim, row-major
	Radius            []float64 // one per cluster
	MemberCounts      []int32   // one per cluster; sums to Rows
	Members           []int32   // flattened cell membership, cell-major
	Placed            int       // rows placed by nearest centroid since the k-means build
}

// Parts extracts the engine's derived arrays as views (no copies). The
// engine must not be Extended while the caller is still encoding them;
// in the serving pipeline this holds because snapshots are taken from a
// quiesced engine.
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

// Parts flattens the index for serialization; the returned slices view
// the index's own storage except Members/MemberCounts, which are
// re-packed (the in-memory form is ragged).
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

// EngineFromParts reassembles an engine from restored sections plus the
// freshly renormalized float64 document matrix. docs ownership
// transfers to the engine (it is not cloned — the caller just built it
// for this purpose); the Parts slices may be read-only views.
//
// Validation is structural and O(rows + clusters·dim), never
// O(rows·cols) numeric work — re-deriving the quantized tiers would
// cost the SVD-free startup the snapshot exists to provide. Payload
// integrity is the snapshot container's job (per-section CRCs).
func EngineFromParts(docs *dense.Matrix, p *Parts) (*Engine, error) {
	if docs.Rows != p.Rows || docs.Cols != p.Cols {
		return nil, fmt.Errorf("rank: parts are %d×%d but docs are %d×%d",
			p.Rows, p.Cols, docs.Rows, docs.Cols)
	}
	n := p.Rows * p.Cols
	claimed := new(atomic.Int64)
	claimed.Store(int64(len(docs.Data)))
	e := &Engine{docs: docs, claimed: claimed}

	if p.Mirror != nil {
		if len(p.Mirror) != n || len(p.Eps) != p.Rows {
			return nil, fmt.Errorf("rank: mirror sections sized %d/%d, want %d/%d",
				len(p.Mirror), len(p.Eps), n, p.Rows)
		}
		if p.MaxEps < 0 || math.IsNaN(p.MaxEps) || math.IsInf(p.MaxEps, 0) {
			return nil, fmt.Errorf("rank: corrupt mirror maxEps %v", p.MaxEps)
		}
		// The mirror is built in one literal — it is an //lsilint:immutable
		// type, and this is its restore-side constructor.
		var q8 *dense.MatrixI8
		var scale, eps8 []float64
		if p.Q8 != nil {
			if p.Cols > dense.MaxI8Dim {
				return nil, fmt.Errorf("rank: int8 sections present but cols %d exceed %d",
					p.Cols, dense.MaxI8Dim)
			}
			if len(p.Q8) != n || len(p.Scale) != p.Rows || len(p.Eps8) != p.Rows {
				return nil, fmt.Errorf("rank: int8 sections sized %d/%d/%d, want %d/%d/%d",
					len(p.Q8), len(p.Scale), len(p.Eps8), n, p.Rows, p.Rows)
			}
			if p.MaxEps8 < 0 || math.IsNaN(p.MaxEps8) || math.IsInf(p.MaxEps8, 0) {
				return nil, fmt.Errorf("rank: corrupt int8 maxEps8 %v", p.MaxEps8)
			}
			q8 = &dense.MatrixI8{Rows: p.Rows, Cols: p.Cols, Data: p.Q8}
			scale, eps8 = p.Scale, p.Eps8
		}
		e.mir = &mirror{
			docs:    &dense.MatrixF32{Rows: p.Rows, Cols: p.Cols, Data: p.Mirror},
			eps:     p.Eps,
			maxEps:  p.MaxEps,
			q8:      q8,
			scale:   scale,
			eps8:    eps8,
			maxEps8: p.MaxEps8,
		}
	} else if p.Q8 != nil {
		return nil, fmt.Errorf("rank: int8 tier requires the float32 mirror")
	}

	if p.IVF != nil {
		ix, err := IVFFromParts(p.IVF)
		if err != nil {
			return nil, err
		}
		if ix.rows > p.Rows {
			return nil, fmt.Errorf("rank: IVF covers %d rows but engine has %d", ix.rows, p.Rows)
		}
		if ix.dim != p.Cols {
			return nil, fmt.Errorf("rank: IVF dim %d but engine cols %d", ix.dim, p.Cols)
		}
		e.ivf = ix
	}
	return e, nil
}

// IVFFromParts rebuilds the ragged index from its flattened form,
// verifying the membership lists are an exact partition of [0, Rows):
// a snapshot that dropped or duplicated a row would silently exclude
// documents from (or double-count them in) every certified cell bound.
func IVFFromParts(p *IVFParts) (*IVFIndex, error) {
	clusters := len(p.MemberCounts)
	if p.Rows < 0 || p.Dim <= 0 || p.NProbe < 0 || p.Placed < 0 {
		return nil, fmt.Errorf("rank: corrupt IVF header rows=%d dim=%d nprobe=%d placed=%d",
			p.Rows, p.Dim, p.NProbe, p.Placed)
	}
	if len(p.Cents) != clusters*p.Dim || len(p.Radius) != clusters {
		return nil, fmt.Errorf("rank: IVF sections sized %d/%d, want %d/%d",
			len(p.Cents), len(p.Radius), clusters*p.Dim, clusters)
	}
	for c, r := range p.Radius {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("rank: corrupt IVF radius[%d] = %v", c, r)
		}
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
	members := make([][]int32, clusters)
	off := 0
	for c, cnt := range p.MemberCounts {
		if cnt < 0 || off+int(cnt) > len(p.Members) {
			return nil, fmt.Errorf("rank: IVF cell %d count %d overruns members list", c, cnt)
		}
		members[c] = p.Members[off : off+int(cnt) : off+int(cnt)]
		off += int(cnt)
	}
	if off != len(p.Members) {
		return nil, fmt.Errorf("rank: IVF cell counts sum to %d, want %d", off, len(p.Members))
	}
	return &IVFIndex{
		rows:    p.Rows,
		dim:     p.Dim,
		nprobe:  p.NProbe,
		cents:   &dense.Matrix{Rows: clusters, Cols: p.Dim, Data: p.Cents},
		radius:  p.Radius,
		members: members,
		placed:  p.Placed,
	}, nil
}
