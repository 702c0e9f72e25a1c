package core

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/snapfile"
	"repro/internal/weight"
)

// Snapshot sections for one model, written under a caller-chosen prefix
// so several shard models coexist in one container file:
//
//	<p>model   JSON header (dimensions, weighting scheme, SVD provenance)
//	<p>S       float64 singular values
//	<p>global  float64 global term weights
//	<p>U       float64 term factor, row-major
//	<p>V       float64 document factor, row-major
//
// This is the one on-disk form of a model — an LSI database is a
// long-lived artifact (the paper's TREC SVD took 18 hours to compute;
// §5.3) — written once per shard, under "s<i>/", by the one database
// schema: the shard snapshot that shard.Router.SaveSnapshot writes for
// the server and shard.DatabaseSections for the library and lsiquery.
// The sections are raw little-endian payloads at 64-byte alignment, so
// ModelFromSnapshot can alias the two large factors directly over a
// memory mapping: opening a model costs the JSON header parse, not
// O(terms·k + docs·k) of copying, and factor pages fault in only as
// queries touch them.
//
// Aliasing read-only views is sound under the SharedClone contract
// (core.go): no mutating method writes below the length a model holds,
// and a restored model carries no claim token for V, so its first
// fold-in copies V instead of appending into the mapping — a restored
// model behaves exactly like the published snapshot a background updater
// clones from. The small slices S and global are copied out.

// maxModelDim caps every dimension accepted from a snapshot header
// before anything is sized from it: a corrupt (or hostile) header must
// fail validation, not force a multi-gigabyte allocation — the same
// failure mode as the MatrixMarket size line, capped by the same
// two-orders-beyond-TREC limit (see sparse.maxMMDim).
const maxModelDim = 1 << 24

// snapshotHeader is the JSON "model" section. Dimensions are duplicated
// from the section lengths so corruption of either is detectable.
type snapshotHeader struct {
	K        int           `json:"k"`
	Terms    int           `json:"terms"`
	Docs     int           `json:"docs"`
	NGlobal  int           `json:"nGlobal"`
	Local    weight.Local  `json:"local"`
	Global   weight.Global `json:"global"`
	SvdDocs  int           `json:"svdDocs"`
	SvdTerms int           `json:"svdTerms"`
}

// SnapshotSections flattens the model under prefix. The float64
// sections view the model's own storage — encode them before mutating
// the model.
func (m *Model) SnapshotSections(prefix string) ([]snapfile.Section, error) {
	head, err := json.Marshal(snapshotHeader{
		K:        m.K,
		Terms:    m.U.Rows,
		Docs:     m.V.Rows,
		NGlobal:  len(m.global),
		Local:    m.Scheme.Local,
		Global:   m.Scheme.Global,
		SvdDocs:  m.svdDocs,
		SvdTerms: m.svdTerms,
	})
	if err != nil {
		return nil, err
	}
	return []snapfile.Section{
		{Name: prefix + "model", Data: head},
		{Name: prefix + "S", Data: snapfile.F64Bytes(m.S)},
		{Name: prefix + "global", Data: snapfile.F64Bytes(m.global)},
		{Name: prefix + "U", Data: snapfile.F64Bytes(m.U.Data)},
		{Name: prefix + "V", Data: snapfile.F64Bytes(m.V.Data)},
	}, nil
}

func snapSection(f *snapfile.File, name string) ([]byte, error) {
	b, ok := f.Section(name)
	if !ok {
		return nil, fmt.Errorf("core: snapshot missing section %q", name)
	}
	return b, nil
}

func snapF64(f *snapfile.File, name string, want int) ([]float64, error) {
	b, err := snapSection(f, name)
	if err != nil {
		return nil, err
	}
	xs, err := snapfile.F64(b)
	if err != nil {
		return nil, fmt.Errorf("core: section %q: %w", name, err)
	}
	if len(xs) != want {
		return nil, fmt.Errorf("core: section %q has %d floats, header says %d", name, len(xs), want)
	}
	return xs, nil
}

// ModelFromSnapshot reassembles a model from the sections written by
// SnapshotSections. U and V alias the snapshot's storage (possibly a
// read-only mapping — valid only until the containing File is closed);
// S and global are copied. Validation: dimension caps before any trust
// in the header, finite non-negative singular values.
func ModelFromSnapshot(f *snapfile.File, prefix string) (*Model, error) {
	headRaw, err := snapSection(f, prefix+"model")
	if err != nil {
		return nil, err
	}
	var h snapshotHeader
	if err := json.Unmarshal(headRaw, &h); err != nil {
		return nil, fmt.Errorf("core: snapshot header %q: %w", prefix+"model", err)
	}
	if h.K <= 0 || h.Terms < 0 || h.Docs < 0 || h.NGlobal < 0 {
		return nil, fmt.Errorf("core: corrupt snapshot header (k=%d terms=%d docs=%d)", h.K, h.Terms, h.Docs)
	}
	if h.K > maxModelDim || h.Terms > maxModelDim || h.Docs > maxModelDim || h.NGlobal > maxModelDim {
		return nil, fmt.Errorf("core: snapshot header dimensions (k=%d terms=%d docs=%d g=%d) exceed limit %d",
			h.K, h.Terms, h.Docs, h.NGlobal, maxModelDim)
	}
	s, err := snapF64(f, prefix+"S", h.K)
	if err != nil {
		return nil, err
	}
	global, err := snapF64(f, prefix+"global", h.NGlobal)
	if err != nil {
		return nil, err
	}
	uData, err := snapF64(f, prefix+"U", h.Terms*h.K)
	if err != nil {
		return nil, err
	}
	vData, err := snapF64(f, prefix+"V", h.Docs*h.K)
	if err != nil {
		return nil, err
	}
	for i, sv := range s {
		if sv < 0 || math.IsNaN(sv) || math.IsInf(sv, 0) {
			return nil, fmt.Errorf("core: corrupt singular value σ%d = %v", i, sv)
		}
	}
	return &Model{
		K:        h.K,
		U:        &dense.Matrix{Rows: h.Terms, Cols: h.K, Data: uData},
		S:        append([]float64(nil), s...),
		V:        &dense.Matrix{Rows: h.Docs, Cols: h.K, Data: vData},
		Scheme:   weight.Scheme{Local: h.Local, Global: h.Global},
		global:   append([]float64(nil), global...),
		svdDocs:  h.SvdDocs,
		svdTerms: h.SvdTerms,
	}, nil
}
