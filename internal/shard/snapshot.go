// Persistent snapshots of the whole serving tier: SaveSnapshot writes
// one snapfile container holding every shard's state; Restore rebuilds a
// Router from it without recomputing an SVD or re-running k-means — the
// -load-model path. The same container is the library's database file:
// DatabaseSections writes an unserved model as a 1-shard tier, and
// ReadDatabase reads any tier back as one collection and one model.
//
// What is saved per shard is state, not caches: the LSI model (U, Σ, V,
// global weights), the document list with global submission ordinals (a
// binary record that decodes by copying, see encodeDocs), tombstoned
// rows, the generation and auto-ID counters, and the cluster index's
// cell membership. Every scoring tier — the normalized float64
// cache, the float32 mirror, the int8 tier, their residuals — and every
// cell's centroid and radius are functions of V, so Restore derives them
// as a fresh build does, under the restoring process's own tier
// settings; the derivations are scalar Go, so the restored arrays are
// bit-identical to the saved engine's on every host. The membership is
// the one part of the index that cannot be derived: k-means runs on the
// host-dependent float32 kernels. The term–document count matrix is not
// saved either (the serving path never reads it; queries and fold-ins
// only need the vocabulary).
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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/engine"
	"repro/internal/rank"
	"repro/internal/snapfile"
	"repro/internal/text"
)

// snapshotVersion is the router-snapshot layout version, independent of
// the container format version (snapfile.Version). Version 1 also
// stored the scoring tiers and cell bounds, version 2 stored the
// documents as JSON; neither is read.
const snapshotVersion = 3

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

// shardState is the JSON "s<i>/state" section: the per-shard counters
// and the shape of the binary membership sections.
type shardState struct {
	Gen    uint64    `json:"gen"`
	NextID int       `json:"nextID"`
	Dead   []int     `json:"dead,omitempty"`
	IVF    *ivfState `json:"ivf,omitempty"`
}

// ivfState is the cluster index's record in shardState: the clustered
// row prefix and width its membership sections describe, and the count
// of rows compactions placed by nearest centroid since the index's
// k-means build (it feeds the rebuild trigger, so it travels with the
// membership; omitted when zero).
type ivfState struct {
	Rows   int `json:"rows"`
	Dim    int `json:"dim"`
	Placed int `json:"placed,omitempty"`
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
	sections, err := appendHead(make([]snapfile.Section, 0, 2+8*len(r.shards)), routerMeta{
		Version:  snapshotVersion,
		Shards:   len(r.shards),
		NextOrd:  r.nextOrd.Load(),
		NextAuto: r.nextAuto.Load(),
		Opts:     saveParseOpts(r.coll.ParseOptions()),
	}, r.coll.Vocab.Terms)
	if err != nil {
		return err
	}
	for s, e := range r.shards {
		snap, nextID, err := e.FreezeForSnapshot()
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		sections, err = r.appendShard(sections, s, snap, nextID)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return snapfile.Write(path, sections)
}

// DatabaseSections returns the container of a 1-shard tier serving model
// over coll (its documents in row order, its vocabulary and parse
// options): what New followed by SaveSnapshot writes for the same
// collection and model below the cluster index's row floor —
// generation 1, ordinals 0..n−1 and counters as New starts them, no
// cell membership. It is the library's and lsiquery's save format, so
// what they save restores onto a server, and ReadDatabase reads it back.
// New's view of a model holding folded rows reports every row folded;
// here the model's own SVD provenance is kept.
func DatabaseSections(coll *corpus.Collection, model *core.Model) ([]snapfile.Section, error) {
	n := coll.Size()
	if model.NumDocs() != n {
		return nil, fmt.Errorf("shard: model has %d docs, collection %d", model.NumDocs(), n)
	}
	sections, err := appendHead(nil, routerMeta{
		Version:  snapshotVersion,
		Shards:   1,
		NextOrd:  int64(n),
		NextAuto: int64(n),
		Opts:     saveParseOpts(coll.ParseOptions()),
	}, coll.Vocab.Terms)
	if err != nil {
		return nil, err
	}
	ords := make([]int64, n)
	for i := range ords {
		ords[i] = int64(i)
	}
	return appendShardSections(sections, "s0/", shardState{Gen: 1, NextID: n}, coll.Docs, ords, model, nil)
}

// appendHead appends the tier-wide sections, meta and vocab.
func appendHead(sections []snapfile.Section, meta routerMeta, terms []string) ([]snapfile.Section, error) {
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	vocabRaw, err := json.Marshal(terms)
	if err != nil {
		return nil, err
	}
	return append(sections,
		snapfile.Section{Name: "meta", Data: metaRaw},
		snapfile.Section{Name: "vocab", Data: vocabRaw}), nil
}

// appendShard flattens one shard's frozen snapshot: the registry gives
// each live row its global ordinal.
func (r *Router) appendShard(sections []snapfile.Section, s int, snap *engine.Snapshot, nextID int) ([]snapfile.Section, error) {
	st := shardState{Gen: snap.Gen, NextID: nextID}
	ords := make([]int64, len(snap.Docs))
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
		ords[i] = ord
	}
	return appendShardSections(sections, fmt.Sprintf("s%d/", s), st, snap.Docs, ords, snap.Model, snap.Eng.Parts().IVF)
}

// appendShardSections appends one shard's sections under prefix: its
// state, its docs record and its model, then the cell membership when
// the shard serves a cluster index.
func appendShardSections(sections []snapfile.Section, prefix string, st shardState, docs []corpus.Document,
	ords []int64, model *core.Model, ivf *rank.IVFParts) ([]snapfile.Section, error) {
	docsRaw := encodeDocs(docs, ords)
	if ivf != nil {
		st.IVF = &ivfState{Rows: ivf.Rows, Dim: ivf.Dim, Placed: ivf.Placed}
	}
	stateRaw, err := json.Marshal(&st)
	if err != nil {
		return nil, err
	}
	modelSections, err := model.SnapshotSections(prefix)
	if err != nil {
		return nil, err
	}
	sections = append(sections,
		snapfile.Section{Name: prefix + "state", Data: stateRaw},
		snapfile.Section{Name: prefix + "docs", Data: docsRaw})
	sections = append(sections, modelSections...)
	if ivf != nil {
		sections = append(sections,
			snapfile.Section{Name: prefix + "counts", Data: snapfile.I32Bytes(ivf.MemberCounts)},
			snapfile.Section{Name: prefix + "members", Data: snapfile.I32Bytes(ivf.Members)})
	}
	return sections, nil
}

// The "s<i>/docs" section is one little-endian record, decoded with
// copies instead of a parser:
//
//	n            uint64
//	ord          int64 × n   global submission ordinal, -1 on dead rows
//	idEnd        uint64 × n  end offset of each id in the id blob
//	textEnd      uint64 × n  end offset of each text in the text blob
//	ids          the ids, concatenated
//	texts        the texts, concatenated
//
// Offsets are absolute within their blob, so row i's text is
// texts[textEnd[i-1]:textEnd[i]] wherever the blob lives. Bytes are
// stored as given: texts and ids round-trip exactly, invalid UTF-8
// included. The encoding is canonical — decodeDocs accepts only what
// encodeDocs writes.
const docsHeader = 8

// encodeDocs writes docs and their ordinals as a docs record.
func encodeDocs(docs []corpus.Document, ords []int64) []byte {
	n := len(docs)
	var idLen, textLen int
	for _, d := range docs {
		idLen += len(d.ID)
		textLen += len(d.Text)
	}
	b := make([]byte, docsHeader+24*n+idLen+textLen)
	le := binary.LittleEndian
	le.PutUint64(b, uint64(n))
	ordAt, idEndAt, textEndAt := docsHeader, docsHeader+8*n, docsHeader+16*n
	ids := b[docsHeader+24*n:]
	texts := ids[idLen:]
	var idOff, textOff int
	for i, d := range docs {
		le.PutUint64(b[ordAt+8*i:], uint64(ords[i]))
		idOff += copy(ids[idOff:], d.ID)
		textOff += copy(texts[textOff:], d.Text)
		le.PutUint64(b[idEndAt+8*i:], uint64(idOff))
		le.PutUint64(b[textEndAt+8*i:], uint64(textOff))
	}
	return b
}

// decodeDocs parses a docs record. It makes two string allocations —
// one per blob — and slices every ID and Text out of them. Beyond the
// header fitting, it checks that offsets never decrease, stay within
// their blob, and that the two blobs fill the rest of the record
// exactly.
func decodeDocs(b []byte) ([]corpus.Document, []int64, error) {
	if len(b) < docsHeader {
		return nil, nil, fmt.Errorf("docs record of %d bytes has no header", len(b))
	}
	le := binary.LittleEndian
	n64 := le.Uint64(b)
	if n64 > uint64(len(b)-docsHeader)/24 {
		return nil, nil, fmt.Errorf("docs record of %d bytes cannot hold %d rows", len(b), n64)
	}
	n := int(n64)
	ords := make([]int64, n)
	for i := range ords {
		ords[i] = int64(le.Uint64(b[docsHeader+8*i:]))
	}
	idEnd := b[docsHeader+8*n : docsHeader+16*n]
	textEnd := b[docsHeader+16*n : docsHeader+24*n]
	blob := b[docsHeader+24*n:]
	var idLen, textLen uint64
	if n > 0 {
		idLen, textLen = le.Uint64(idEnd[8*(n-1):]), le.Uint64(textEnd[8*(n-1):])
	}
	if idLen > uint64(len(blob)) || textLen > uint64(len(blob))-idLen {
		return nil, nil, fmt.Errorf("docs record: blobs of %d+%d bytes past the %d stored", idLen, textLen, len(blob))
	}
	if extra := uint64(len(blob)) - idLen - textLen; extra != 0 {
		return nil, nil, fmt.Errorf("docs record: %d trailing bytes", extra)
	}
	ids, texts := string(blob[:idLen]), string(blob[idLen:])
	docs := make([]corpus.Document, n)
	var idPrev, textPrev uint64
	for i := range docs {
		ie, te := le.Uint64(idEnd[8*i:]), le.Uint64(textEnd[8*i:])
		if ie < idPrev || ie > idLen || te < textPrev || te > textLen {
			return nil, nil, fmt.Errorf("docs record: row %d offsets (%d, %d) outside [%d, %d] × [%d, %d]",
				i, ie, te, idPrev, idLen, textPrev, textLen)
		}
		docs[i] = corpus.Document{ID: ids[idPrev:ie], Text: texts[textPrev:te]}
		idPrev, textPrev = ie, te
	}
	return docs, ords, nil
}

// Restore rebuilds a Router from a SaveSnapshot container. cfg is the
// runtime configuration (engine knobs, compaction threshold); cfg.Shards
// must be zero (accept the saved count) or equal to it — document
// placement is shard-count-dependent, so restoring onto a different
// count would strand documents on the wrong shards.
//
// Each shard's scoring cache is built from its model's V exactly as a
// fresh build builds it, so cfg.Engine's DisableScreening, DisableIVF,
// IVFNProbe and IVFMinRows apply to the restored tier as they would to a
// build; the saved cell membership stands in for k-means wherever the
// build would cluster. That derivation is O(n·k) per shard and fans out
// over the cores; the documents decode by copying two blobs. Shards
// restore in parallel, as New builds them.
//
// The returned snapfile.File backs the restored models' factor arrays
// (memory-mapped where the platform supports it — cold rows page in on
// first touch). It must stay open for the router's lifetime; closing it
// unmaps memory the models are still reading.
//
// verify=false checks the container header and section table and
// validates payloads structurally (shapes, index ranges, the cell
// partition, finiteness of the singular values) without re-hashing
// them. verify=true additionally CRC-checks every payload, which reads
// the whole file — for operators who want bit-rot detection.
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

// Collection exposes the router's global collection: the vocabulary
// and parse options query parsing needs, with no documents (per-shard
// collections own those) and no count matrix, after New as after
// Restore.
func (r *Router) Collection() *corpus.Collection { return r.coll }

func snapBytes(f *snapfile.File, name string) ([]byte, error) {
	b, ok := f.Section(name)
	if !ok {
		return nil, fmt.Errorf("shard: snapshot missing section %q", name)
	}
	return b, nil
}

func snapJSON(f *snapfile.File, name string, v any) error {
	b, err := snapBytes(f, name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("shard: section %q: %w", name, err)
	}
	return nil
}

func snapI32(f *snapfile.File, name string) ([]int32, error) {
	b, err := snapBytes(f, name)
	if err != nil {
		return nil, err
	}
	xs, err := snapfile.I32(b)
	if err != nil {
		return nil, fmt.Errorf("shard: section %q: %w", name, err)
	}
	return xs, nil
}

// readHead reads the tier-wide sections: meta, and the vocabulary with
// the saved parse options as a collection without documents.
func readHead(f *snapfile.File) (routerMeta, *corpus.Collection, error) {
	var meta routerMeta
	if err := snapJSON(f, "meta", &meta); err != nil {
		return meta, nil, err
	}
	if meta.Version != snapshotVersion {
		return meta, nil, fmt.Errorf("shard: snapshot version %d, this binary reads %d", meta.Version, snapshotVersion)
	}
	if meta.Shards <= 0 || meta.Shards > maxSnapshotShards {
		return meta, nil, fmt.Errorf("shard: corrupt snapshot shard count %d", meta.Shards)
	}
	var terms []string
	if err := snapJSON(f, "vocab", &terms); err != nil {
		return meta, nil, err
	}
	opts := meta.Opts.parseOptions()
	return meta, corpus.Restore(nil, text.NewVocabularyFromTerms(terms, opts), opts), nil
}

func restoreFrom(f *snapfile.File, cfg Config) (*Router, error) {
	meta, coll, err := readHead(f)
	if err != nil {
		return nil, err
	}
	vocab, opts := coll.Vocab, coll.ParseOptions()
	if cfg.Shards != 0 && cfg.Shards != meta.Shards {
		return nil, fmt.Errorf("shard: snapshot was saved with %d shards, cannot restore onto %d (placement is shard-count-dependent)",
			meta.Shards, cfg.Shards)
	}
	cfg.Shards = meta.Shards
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Router{cfg: cfg, coll: coll}
	r.nextOrd.Store(meta.NextOrd)
	r.nextAuto.Store(meta.NextAuto)
	engines, err := startShards(meta.Shards, func(s int) (*engine.Engine, error) {
		return r.restoreShard(f, s, vocab, opts, cfg.Engine)
	})
	if err != nil {
		return nil, err
	}
	r.shards = engines
	r.startMonitor()
	return r, nil
}

// restoreShard rebuilds one shard: the model sections attach (mmap
// views), engine.New derives the scoring cache from V as for a fresh
// build and certifies the saved cell membership, and the engine resumes
// with its persisted counters. Registry entries for the shard's live
// documents are seeded as a side effect; shards restore concurrently
// into the one registry, so a live ID stored on two shards fails
// whichever claims it second.
func (r *Router) restoreShard(f *snapfile.File, s int, vocab *text.Vocabulary,
	opts text.ParseOptions, engCfg engine.Config) (*engine.Engine, error) {
	prefix := fmt.Sprintf("s%d/", s)
	sh, err := decodeShard(f, prefix, func(_ int, d corpus.Document, ord int64) error {
		if _, dup := r.ids.LoadOrStore(d.ID, idEntry{ord: ord, shard: s}); dup {
			return fmt.Errorf("live document ID %q appears twice in snapshot", d.ID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ivf := sh.state.IVF; ivf != nil {
		counts, err := snapI32(f, prefix+"counts")
		if err != nil {
			return nil, err
		}
		members, err := snapI32(f, prefix+"members")
		if err != nil {
			return nil, err
		}
		engCfg.RestoredIVF = &rank.IVFParts{Rows: ivf.Rows, Dim: ivf.Dim,
			MemberCounts: counts, Members: members, Placed: ivf.Placed}
	}
	engCfg.InitialGen = sh.state.Gen
	engCfg.RestoredDead = sh.state.Dead
	engCfg.RestoredNextID = sh.state.NextID
	return engine.New(corpus.Restore(sh.docs, vocab, opts), sh.model, engCfg)
}

// savedShard is one shard's state, documents and model as decodeShard
// reads them.
type savedShard struct {
	state shardState
	docs  []corpus.Document
	model *core.Model
}

// decodeShard reads the state, docs and model sections under prefix and
// checks them against each other: one model row per document, dead rows
// in range, and exactly the dead rows without an ordinal. live is called
// on every live row, in row order, with its global ordinal; its error
// ends the decode.
func decodeShard(f *snapfile.File, prefix string, live func(row int, d corpus.Document, ord int64) error) (savedShard, error) {
	var st shardState
	if err := snapJSON(f, prefix+"state", &st); err != nil {
		return savedShard{}, err
	}
	b, err := snapBytes(f, prefix+"docs")
	if err != nil {
		return savedShard{}, err
	}
	docs, ords, err := decodeDocs(b)
	if err != nil {
		return savedShard{}, err
	}
	model, err := core.ModelFromSnapshot(f, prefix)
	if err != nil {
		return savedShard{}, err
	}
	if model.NumDocs() != len(docs) {
		return savedShard{}, fmt.Errorf("model has %d rows, docs section %d", model.NumDocs(), len(docs))
	}

	deadSet := make(map[int]struct{}, len(st.Dead))
	for _, row := range st.Dead {
		if row < 0 || row >= len(docs) {
			return savedShard{}, fmt.Errorf("dead row %d outside [0, %d)", row, len(docs))
		}
		deadSet[row] = struct{}{}
	}
	for i, d := range docs {
		_, dead := deadSet[i]
		if dead != (ords[i] < 0) {
			return savedShard{}, fmt.Errorf("row %d: dead=%v but ord=%d", i, dead, ords[i])
		}
		if !dead {
			if err := live(i, d, ords[i]); err != nil {
				return savedShard{}, err
			}
		}
	}
	return savedShard{state: st, docs: docs, model: model}, nil
}

// ReadDatabase reads any container SaveSnapshot or DatabaseSections
// wrote, at any shard count, as one collection (vocabulary, parse
// options, live documents) and one model over it — the library's and
// lsiquery's load path. Live rows merge in global-ordinal order, the
// order the router's merge breaks score ties by (one shard keeps its
// row order, as the router's single-shard path does); tombstoned rows
// are dropped. Every shard must share shard 0's basis — byte-equal U, S
// and global payloads and the same weighting — and the merged model is
// unfolded only if every shard's is. Without a merge the model is the
// saved one; either way U aliases f's storage.
func ReadDatabase(f *snapfile.File) (*corpus.Collection, *core.Model, error) {
	if _, ok := f.Section("index"); ok {
		return nil, nil, errors.New(`shard: retired library index format (the "index" section internal/index wrote): rebuild the database and save it again`)
	}
	meta, coll, err := readHead(f)
	if err != nil {
		return nil, nil, err
	}
	type liveRow struct {
		shard, row int
		ord        int64
	}
	var rows []liveRow
	shards := make([]savedShard, meta.Shards)
	unfolded := true
	for s := range shards {
		prefix := fmt.Sprintf("s%d/", s)
		sh, err := decodeShard(f, prefix, func(row int, _ corpus.Document, ord int64) error {
			rows = append(rows, liveRow{shard: s, row: row, ord: ord})
			return nil
		})
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		for _, name := range []string{"U", "S", "global"} {
			a, _ := f.Section("s0/" + name)
			if b, _ := f.Section(prefix + name); !bytes.Equal(a, b) {
				return nil, nil, fmt.Errorf("shard: section %q differs from shard 0's: the shards do not share one basis", prefix+name)
			}
		}
		if s > 0 && sh.model.Scheme != shards[0].model.Scheme {
			return nil, nil, fmt.Errorf("shard %d: weighting %v differs from shard 0's %v", s, sh.model.Scheme, shards[0].model.Scheme)
		}
		shards[s] = sh
		unfolded = unfolded && sh.model.FoldedDocs() == 0
	}
	first := shards[0]
	if len(shards) == 1 && len(rows) == len(first.docs) {
		coll.Docs = first.docs
		return coll, first.model, nil
	}
	if len(shards) > 1 {
		sort.Slice(rows, func(i, j int) bool { return rows[i].ord < rows[j].ord })
	}
	coll.Docs = make([]corpus.Document, len(rows))
	v := dense.New(len(rows), first.model.K)
	for i, lr := range rows {
		sh := shards[lr.shard]
		coll.Docs[i] = sh.docs[lr.row]
		copy(v.Row(i), sh.model.V.Row(lr.row))
	}
	return coll, first.model.WithDocRows(v, unfolded), nil
}
