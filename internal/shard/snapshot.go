// Persistent snapshots of the whole serving tier: SaveSnapshot writes
// one snapfile container holding every shard's model, scoring-cache
// arrays and registry state; Restore reassembles a Router from it
// without recomputing an SVD, a mirror, a quantized tier or a cluster
// index — the -load-model path, whose startup cost is O(header + JSON
// state), not O(corpus).
//
// What is saved per shard: the LSI model (U, Σ, V, global weights), the
// document list with global submission ordinals, tombstoned rows, the
// generation and auto-ID counters, and the rank engine's derived arrays
// (float32 mirror, int8 tier, residuals, IVF index) via rank.Parts.
// What is deliberately NOT saved: the float64 normalized document cache
// (renormalized from V at load — bit-identical and cheaper than paging
// 8 bytes/coordinate), and the term–document count matrix (the serving
// path never reads it; queries and fold-ins only need the vocabulary).
//
// Save runs a coordinated compaction first (best-effort), so the
// persisted bases are pure SVD wherever feasible and a restored router
// regains automatic compaction.
//
// The shard count is part of the format: documents are placed by ID
// hash and round-robin, so a container can only be restored onto the
// same number of shards it was saved from.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/engine"
	"repro/internal/rank"
	"repro/internal/snapfile"
	"repro/internal/text"
)

// snapshotVersion is the router-snapshot layout version, independent of
// the container format version (snapfile.Version).
const snapshotVersion = 1

// maxSnapshotShards keeps every section name within snapfile's 16-byte
// limit ("s999/members" is the longest stem).
const maxSnapshotShards = 1000

// routerMeta is the JSON "meta" section.
type routerMeta struct {
	Version  int            `json:"version"`
	Shards   int            `json:"shards"`
	NextOrd  int64          `json:"nextOrd"`
	NextAuto int64          `json:"nextAuto"`
	Opts     savedParseOpts `json:"opts"`
}

// savedParseOpts is text.ParseOptions in serializable form. The
// stopword set is stored expanded (fill() has already resolved the
// default list), so restore does not depend on the built-in list being
// identical across versions.
type savedParseOpts struct {
	MinDocs        int               `json:"minDocs"`
	MinLength      int               `json:"minLength"`
	IncludeBigrams bool              `json:"includeBigrams,omitempty"`
	Stopwords      []string          `json:"stopwords"`
	Aliases        map[string]string `json:"aliases,omitempty"`
}

func saveParseOpts(o text.ParseOptions) savedParseOpts {
	words := make([]string, 0, len(o.Stopwords))
	for w, on := range o.Stopwords {
		if on {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	return savedParseOpts{
		MinDocs:        o.MinDocs,
		MinLength:      o.MinLength,
		IncludeBigrams: o.IncludeBigrams,
		Stopwords:      words,
		Aliases:        o.Aliases,
	}
}

func (s savedParseOpts) parseOptions() text.ParseOptions {
	stop := make(map[string]bool, len(s.Stopwords))
	for _, w := range s.Stopwords {
		stop[w] = true
	}
	return text.ParseOptions{
		MinDocs:        s.MinDocs,
		MinLength:      s.MinLength,
		IncludeBigrams: s.IncludeBigrams,
		Stopwords:      stop,
		Aliases:        s.Aliases,
	}
}

// savedDoc is one document row: its identity, raw text, and global
// submission ordinal (-1 for tombstoned rows, whose ordinal was
// released at delete time).
type savedDoc struct {
	ID   string `json:"id"`
	Text string `json:"text"`
	Ord  int64  `json:"ord"`
}

// shardState is the JSON "s<i>/state" section: the per-shard counters
// and the shapes of the binary rank/IVF sections.
type shardState struct {
	Gen    uint64 `json:"gen"`
	NextID int    `json:"nextID"`
	Dead   []int  `json:"dead,omitempty"`
	Rank   struct {
		Rows      int     `json:"rows"`
		Cols      int     `json:"cols"`
		MaxEps    float64 `json:"maxEps"`
		MaxEps8   float64 `json:"maxEps8"`
		HasMirror bool    `json:"hasMirror"`
		HasQ8     bool    `json:"hasQ8"`
	} `json:"rank"`
	IVF *struct {
		Rows   int `json:"rows"`
		Dim    int `json:"dim"`
		NProbe int `json:"nprobe"`
	} `json:"ivf,omitempty"`
}

// SaveSnapshot persists the tier to path. It first runs a coordinated
// compaction (best-effort: a tier whose initial model already contained
// folded rows has no SVD base and is saved as-is), then captures every
// shard's frozen state and writes one container. The router must be
// quiesced — no concurrent Submit/Delete — which is the state the
// -save-model shutdown path calls it in (after http.Server.Shutdown,
// before Close).
func (r *Router) SaveSnapshot(path string) error {
	if len(r.shards) > maxSnapshotShards {
		return fmt.Errorf("shard: %d shards exceed snapshot limit %d", len(r.shards), maxSnapshotShards)
	}
	if err := r.Compact(); err != nil && !errors.Is(err, engine.ErrNoBase) {
		return fmt.Errorf("shard: pre-save compaction: %w", err)
	}
	sections := make([]snapfile.Section, 0, 2+14*len(r.shards))
	meta := routerMeta{
		Version:  snapshotVersion,
		Shards:   len(r.shards),
		NextOrd:  r.nextOrd.Load(),
		NextAuto: r.nextAuto.Load(),
		Opts:     saveParseOpts(r.coll.ParseOptions()),
	}
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	vocabRaw, err := json.Marshal(r.coll.Vocab.Terms)
	if err != nil {
		return err
	}
	sections = append(sections,
		snapfile.Section{Name: "meta", Data: metaRaw},
		snapfile.Section{Name: "vocab", Data: vocabRaw})
	for s, e := range r.shards {
		snap, nextID, err := e.FreezeForSnapshot()
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		ss, err := r.shardSections(s, snap, nextID)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		sections = append(sections, ss...)
	}
	return snapfile.Write(path, sections)
}

// shardSections flattens one shard's frozen snapshot.
func (r *Router) shardSections(s int, snap *engine.Snapshot, nextID int) ([]snapfile.Section, error) {
	prefix := fmt.Sprintf("s%d/", s)
	var st shardState
	st.Gen = snap.Gen
	st.NextID = nextID
	docs := make([]savedDoc, len(snap.Docs))
	for i, d := range snap.Docs {
		ord := int64(-1)
		if !snap.Dead.Has(i) {
			v, ok := r.ids.Load(d.ID)
			if !ok {
				return nil, fmt.Errorf("live document %q missing from registry (router not quiesced?)", d.ID)
			}
			ent := v.(idEntry)
			if ent.shard != s {
				return nil, fmt.Errorf("live document %q registered on shard %d but stored on %d", d.ID, ent.shard, s)
			}
			ord = ent.ord
		} else {
			st.Dead = append(st.Dead, i)
		}
		docs[i] = savedDoc{ID: d.ID, Text: d.Text, Ord: ord}
	}
	docsRaw, err := json.Marshal(docs)
	if err != nil {
		return nil, err
	}
	p := snap.Eng.Parts()
	st.Rank.Rows, st.Rank.Cols = p.Rows, p.Cols
	st.Rank.MaxEps, st.Rank.MaxEps8 = p.MaxEps, p.MaxEps8
	st.Rank.HasMirror, st.Rank.HasQ8 = p.Mirror != nil, p.Q8 != nil
	if p.IVF != nil {
		st.IVF = &struct {
			Rows   int `json:"rows"`
			Dim    int `json:"dim"`
			NProbe int `json:"nprobe"`
		}{Rows: p.IVF.Rows, Dim: p.IVF.Dim, NProbe: p.IVF.NProbe}
	}
	stateRaw, err := json.Marshal(&st)
	if err != nil {
		return nil, err
	}
	model, err := snap.Model.SnapshotSections(prefix)
	if err != nil {
		return nil, err
	}
	sections := append([]snapfile.Section{
		{Name: prefix + "state", Data: stateRaw},
		{Name: prefix + "docs", Data: docsRaw},
	}, model...)
	if p.Mirror != nil {
		sections = append(sections,
			snapfile.Section{Name: prefix + "mirror", Data: snapfile.F32Bytes(p.Mirror)},
			snapfile.Section{Name: prefix + "eps", Data: snapfile.F64Bytes(p.Eps)})
	}
	if p.Q8 != nil {
		sections = append(sections,
			snapfile.Section{Name: prefix + "q8", Data: snapfile.I8Bytes(p.Q8)},
			snapfile.Section{Name: prefix + "scale", Data: snapfile.F64Bytes(p.Scale)},
			snapfile.Section{Name: prefix + "eps8", Data: snapfile.F64Bytes(p.Eps8)})
	}
	if p.IVF != nil {
		sections = append(sections,
			snapfile.Section{Name: prefix + "cents", Data: snapfile.F64Bytes(p.IVF.Cents)},
			snapfile.Section{Name: prefix + "radius", Data: snapfile.F64Bytes(p.IVF.Radius)},
			snapfile.Section{Name: prefix + "counts", Data: snapfile.I32Bytes(p.IVF.MemberCounts)},
			snapfile.Section{Name: prefix + "members", Data: snapfile.I32Bytes(p.IVF.Members)})
	}
	return sections, nil
}

// Restore reassembles a Router from a SaveSnapshot container. cfg is
// the runtime configuration (engine knobs, compaction threshold);
// cfg.Shards must be zero (accept the saved count) or equal to it —
// document placement is shard-count-dependent, so restoring onto a
// different count would strand documents on the wrong shards.
//
// The returned snapfile.File backs the restored engines' mirror,
// quantized-tier and factor arrays (memory-mapped where the platform
// supports it — cold rows page in on first touch). It must stay open
// for the router's lifetime; closing it unmaps memory the engines are
// still reading.
//
// verify=false is the O(1) path: the container header and section table
// are checksummed, payloads are validated structurally (shapes, index
// ranges, finiteness of the scalars load-bearing for correctness) but
// not re-hashed. verify=true additionally CRC-checks every payload,
// which reads the whole file — linear in corpus size, for operators who
// want bit-rot detection over instant startup.
func Restore(path string, cfg Config, verify bool) (*Router, *snapfile.File, error) {
	f, err := snapfile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if verify {
		if err := f.VerifyAll(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	r, err := restoreFrom(f, cfg)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// Collection exposes the router's global collection (its vocabulary is
// what query parsing needs; after Restore it carries no documents —
// per-shard collections own those).
func (r *Router) Collection() *corpus.Collection { return r.coll }

func snapJSON(f *snapfile.File, name string, v any) error {
	b, ok := f.Section(name)
	if !ok {
		return fmt.Errorf("shard: snapshot missing section %q", name)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("shard: section %q: %w", name, err)
	}
	return nil
}

func snapF64(f *snapfile.File, name string, want int) ([]float64, error) {
	b, ok := f.Section(name)
	if !ok {
		return nil, fmt.Errorf("shard: snapshot missing section %q", name)
	}
	xs, err := snapfile.F64(b)
	if err == nil && len(xs) != want {
		err = fmt.Errorf("%d values, state says %d", len(xs), want)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: section %q: %w", name, err)
	}
	return xs, nil
}

func restoreFrom(f *snapfile.File, cfg Config) (*Router, error) {
	var meta routerMeta
	if err := snapJSON(f, "meta", &meta); err != nil {
		return nil, err
	}
	if meta.Version != snapshotVersion {
		return nil, fmt.Errorf("shard: snapshot version %d, this binary reads %d", meta.Version, snapshotVersion)
	}
	if meta.Shards <= 0 || meta.Shards > maxSnapshotShards {
		return nil, fmt.Errorf("shard: corrupt snapshot shard count %d", meta.Shards)
	}
	if cfg.Shards != 0 && cfg.Shards != meta.Shards {
		return nil, fmt.Errorf("shard: snapshot was saved with %d shards, cannot restore onto %d (placement is shard-count-dependent)",
			meta.Shards, cfg.Shards)
	}
	cfg.Shards = meta.Shards
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	var terms []string
	if err := snapJSON(f, "vocab", &terms); err != nil {
		return nil, err
	}
	opts := meta.Opts.parseOptions()
	vocab := text.NewVocabularyFromTerms(terms, opts)

	r := &Router{cfg: cfg, coll: corpus.Restore(nil, vocab, opts)}
	r.nextOrd.Store(meta.NextOrd)
	r.nextAuto.Store(meta.NextAuto)
	engines := make([]*engine.Engine, meta.Shards)
	closeAll := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		for _, e := range engines {
			if e != nil {
				_ = e.Close(ctx)
			}
		}
	}
	for s := range engines {
		eng, err := r.restoreShard(f, s, vocab, opts, cfg.Engine)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		engines[s] = eng
	}
	r.shards = engines
	r.startMonitor()
	return r, nil
}

// restoreShard rebuilds one shard: model sections attach (mmap views),
// the normalized float64 cache is recomputed from V — the one array
// cheaper to rebuild than to store — the rank tiers attach as views,
// and the engine resumes with its persisted counters. Registry entries
// for the shard's live documents are seeded as a side effect.
func (r *Router) restoreShard(f *snapfile.File, s int, vocab *text.Vocabulary,
	opts text.ParseOptions, engCfg engine.Config) (*engine.Engine, error) {
	prefix := fmt.Sprintf("s%d/", s)
	var st shardState
	if err := snapJSON(f, prefix+"state", &st); err != nil {
		return nil, err
	}
	var saved []savedDoc
	if err := snapJSON(f, prefix+"docs", &saved); err != nil {
		return nil, err
	}
	model, err := core.ModelFromSnapshot(f, prefix)
	if err != nil {
		return nil, err
	}
	if model.NumDocs() != len(saved) {
		return nil, fmt.Errorf("model has %d rows, docs section %d", model.NumDocs(), len(saved))
	}
	if st.Rank.Rows != model.NumDocs() || st.Rank.Cols != model.K {
		return nil, fmt.Errorf("rank state %dx%d does not match model %dx%d",
			st.Rank.Rows, st.Rank.Cols, model.NumDocs(), model.K)
	}

	docs := make([]corpus.Document, len(saved))
	deadSet := make(map[int]struct{}, len(st.Dead))
	for _, row := range st.Dead {
		if row < 0 || row >= len(saved) {
			return nil, fmt.Errorf("dead row %d outside [0, %d)", row, len(saved))
		}
		deadSet[row] = struct{}{}
	}
	for i, d := range saved {
		docs[i] = corpus.Document{ID: d.ID, Text: d.Text}
		_, dead := deadSet[i]
		if dead != (d.Ord < 0) {
			return nil, fmt.Errorf("row %d: dead=%v but ord=%d", i, dead, d.Ord)
		}
		if !dead {
			if _, dup := r.ids.LoadOrStore(d.ID, idEntry{ord: d.Ord, shard: s}); dup {
				return nil, fmt.Errorf("live document ID %q appears twice in snapshot", d.ID)
			}
		}
	}

	// The normalized float64 cache: unit-normalize a private clone of V —
	// the exact operation rank.NewEngine performed originally, so the
	// restored rows are bit-identical to the saved engine's.
	norm := model.V.Clone()
	for i := 0; i < norm.Rows; i++ {
		dense.Normalize(norm.Row(i))
	}

	parts := &rank.Parts{Rows: st.Rank.Rows, Cols: st.Rank.Cols,
		MaxEps: st.Rank.MaxEps, MaxEps8: st.Rank.MaxEps8}
	n := st.Rank.Rows * st.Rank.Cols
	if st.Rank.HasMirror {
		b, ok := f.Section(prefix + "mirror")
		if !ok {
			return nil, fmt.Errorf("missing section %q", prefix+"mirror")
		}
		if parts.Mirror, err = snapfile.F32(b); err != nil || len(parts.Mirror) != n {
			return nil, fmt.Errorf("section %q: %d values, want %d (%v)", prefix+"mirror", len(parts.Mirror), n, err)
		}
		if parts.Eps, err = snapF64(f, prefix+"eps", st.Rank.Rows); err != nil {
			return nil, err
		}
	}
	if st.Rank.HasQ8 {
		b, ok := f.Section(prefix + "q8")
		if !ok {
			return nil, fmt.Errorf("missing section %q", prefix+"q8")
		}
		if parts.Q8 = snapfile.I8(b); len(parts.Q8) != n {
			return nil, fmt.Errorf("section %q: %d values, want %d", prefix+"q8", len(parts.Q8), n)
		}
		if parts.Scale, err = snapF64(f, prefix+"scale", st.Rank.Rows); err != nil {
			return nil, err
		}
		if parts.Eps8, err = snapF64(f, prefix+"eps8", st.Rank.Rows); err != nil {
			return nil, err
		}
	}
	if st.IVF != nil {
		b, ok := f.Section(prefix + "counts")
		if !ok {
			return nil, fmt.Errorf("missing section %q", prefix+"counts")
		}
		counts, err := snapfile.I32(b)
		if err != nil {
			return nil, fmt.Errorf("section %q: %w", prefix+"counts", err)
		}
		mb, ok := f.Section(prefix + "members")
		if !ok {
			return nil, fmt.Errorf("missing section %q", prefix+"members")
		}
		members, err := snapfile.I32(mb)
		if err != nil {
			return nil, fmt.Errorf("section %q: %w", prefix+"members", err)
		}
		cents, err := snapF64(f, prefix+"cents", len(counts)*st.IVF.Dim)
		if err != nil {
			return nil, err
		}
		radius, err := snapF64(f, prefix+"radius", len(counts))
		if err != nil {
			return nil, err
		}
		parts.IVF = &rank.IVFParts{Rows: st.IVF.Rows, Dim: st.IVF.Dim, NProbe: st.IVF.NProbe,
			Cents: cents, Radius: radius, MemberCounts: counts, Members: members}
	}
	prebuilt, err := rank.EngineFromParts(norm, parts)
	if err != nil {
		return nil, err
	}

	engCfg.Prebuilt = prebuilt
	engCfg.InitialGen = st.Gen
	engCfg.RestoredDead = st.Dead
	engCfg.RestoredNextID = st.NextID
	return engine.New(corpus.Restore(docs, vocab, opts), model, engCfg)
}
