package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/snapfile"
)

// TestRouterSnapshotRoundTrip is the tentpole parity pin for -save-model
// / -load-model: a router driven through fold-ins, deletes and a
// coordinated compaction, saved, and restored must serve byte-identical
// results — and must keep behaving identically through FURTHER fold-ins,
// deletes and compactions, since restore rebuilds live state (registry,
// counters, generation), not a read-only archive.
func TestRouterSnapshotRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			coll, model, raws := synthFixture(t, 48, 6)
			cfg := Config{Shards: shards, Engine: engine.Config{BatchTick: time.Millisecond}}
			live, err := New(coll, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer closeRouter(t, live)
			ctx := context.Background()

			// Fold in extra documents (user and auto IDs) and tombstone a
			// mix of seed and folded rows, so the saved state reflects a
			// full update history, not a fresh build.
			for i := 0; i < 7; i++ {
				doc := corpus.Document{ID: fmt.Sprintf("extra-%02d", i), Text: coll.Docs[(5*i+3)%coll.Size()].Text}
				if _, _, err := live.Submit(ctx, doc); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			if _, _, err := live.Submit(ctx, corpus.Document{Text: coll.Docs[11].Text}); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{coll.Docs[4].ID, "extra-02"} {
				if _, err := live.Delete(ctx, id); err != nil {
					t.Fatalf("delete %q: %v", id, err)
				}
			}

			path := filepath.Join(t.TempDir(), "tier.lsnp")
			if err := live.SaveSnapshot(path); err != nil {
				t.Fatalf("SaveSnapshot: %v", err)
			}
			// Save compacts first, so the live router we compare against is
			// in exactly the persisted state.
			restored, f, err := Restore(path, Config{Engine: cfg.Engine}, true)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			defer f.Close()
			defer closeRouter(t, restored)
			if restored.Shards() != shards {
				t.Fatalf("restored %d shards, want %d", restored.Shards(), shards)
			}

			const topK = 12
			check := func(stage string) {
				t.Helper()
				for qi, raw := range raws {
					hl, _ := live.Search(raw, topK)
					hr, _ := restored.Search(raw, topK)
					sameHits(t, fmt.Sprintf("%s query %d", stage, qi), hr, hl)
				}
				bl, _ := live.SearchBatch(raws, topK)
				br, _ := restored.SearchBatch(raws, topK)
				for qi := range raws {
					sameHits(t, fmt.Sprintf("%s batch row %d", stage, qi), br[qi], bl[qi])
				}
			}
			check("restored")

			sl, sr := live.Stats(), restored.Stats()
			if sr.Documents != sl.Documents || sr.Tombstones != sl.Tombstones {
				t.Fatalf("stats diverge: live %d docs/%d dead, restored %d/%d",
					sl.Documents, sl.Tombstones, sr.Documents, sr.Tombstones)
			}
			if !sr.Screening || sr.MirrorMaxEps <= 0 {
				t.Fatal("restored tier lost its screening mirror")
			}

			// Restored state must be live: duplicate IDs still rejected,
			// deletes route, fresh submissions fold into both identically.
			if _, _, err := restored.Submit(ctx, corpus.Document{ID: "extra-00", Text: "x"}); !errors.Is(err, engine.ErrDuplicateID) {
				t.Fatalf("restored registry lost extra-00: %v", err)
			}
			for i := 0; i < 5; i++ {
				doc := corpus.Document{ID: fmt.Sprintf("post-%02d", i), Text: coll.Docs[(7*i+1)%coll.Size()].Text}
				if _, _, err := live.Submit(ctx, doc); err != nil {
					t.Fatalf("live post submit: %v", err)
				}
				if _, _, err := restored.Submit(ctx, doc); err != nil {
					t.Fatalf("restored post submit: %v", err)
				}
			}
			for _, r := range []*Router{live, restored} {
				if _, err := r.Delete(ctx, "extra-04"); err != nil {
					t.Fatalf("post delete: %v", err)
				}
			}
			check("post-restore fold-ins")

			// A further coordinated compaction must land identically — the
			// restored model carries the same SVD base and provenance.
			if err := live.Compact(); err != nil {
				t.Fatalf("live compact: %v", err)
			}
			if err := restored.Compact(); err != nil {
				t.Fatalf("restored compact: %v", err)
			}
			check("post-restore compaction")

			// Auto-ID counters resumed: a fresh auto ID must not collide
			// with the pre-save auto-assigned document.
			id, _, err := restored.Submit(ctx, corpus.Document{Text: "fresh auto"})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(id, "doc-") {
				t.Fatalf("auto id %q", id)
			}
		})
	}
}

// TestRestoreShardCountPinned: the shard count is part of the format —
// restoring onto a different count must fail loudly, zero means "accept
// the saved count".
func TestRestoreShardCountPinned(t *testing.T) {
	coll, model, _ := synthFixture(t, 40, 6)
	r, err := New(coll, model, Config{Shards: 3, Engine: engine.Config{BatchTick: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, r)
	path := filepath.Join(t.TempDir(), "tier.lsnp")
	if err := r.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(path, Config{Shards: 2}, false); err == nil {
		t.Fatal("restore onto wrong shard count accepted")
	}
	r2, f, err := Restore(path, Config{}, false)
	if err != nil {
		t.Fatalf("restore with unspecified count: %v", err)
	}
	defer f.Close()
	defer closeRouter(t, r2)
	if r2.Shards() != 3 {
		t.Fatalf("restored %d shards", r2.Shards())
	}
}

// resection reads every section of a container back out so a test can
// patch some and rewrite the file.
func resection(t *testing.T, path string) []snapfile.Section {
	t.Helper()
	f, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []snapfile.Section
	for _, name := range f.Names() {
		b, _ := f.Section(name)
		out = append(out, snapfile.Section{Name: name, Data: append([]byte(nil), b...)})
	}
	return out
}

func patchSection(t *testing.T, sections []snapfile.Section, name string, fn func([]byte) []byte) {
	t.Helper()
	for i := range sections {
		if sections[i].Name == name {
			sections[i].Data = fn(sections[i].Data)
			return
		}
	}
	t.Fatalf("section %q not found", name)
}

// patchDocs returns a section mangler that decodes a docs record, lets
// fn edit the rows and ordinals in place, and re-encodes them.
func patchDocs(t *testing.T, fn func(docs []corpus.Document, ords []int64)) func([]byte) []byte {
	return func(b []byte) []byte {
		t.Helper()
		docs, ords, err := decodeDocs(b)
		if err != nil {
			t.Fatal(err)
		}
		fn(docs, ords)
		return encodeDocs(docs, ords)
	}
}

// TestRestoreDeadRows exercises the tombstone-restore path directly (a
// healthy save compacts tombstones away first, so this state normally
// arises only when a downdate was degenerate): a container whose state
// marks a row dead must restore with that row excluded from results and
// its ID free for resubmission.
func TestRestoreDeadRows(t *testing.T) {
	coll, model, raws := synthFixture(t, 40, 6)
	r, err := New(coll, model, Config{Shards: 2, Engine: engine.Config{BatchTick: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, r)
	path := filepath.Join(t.TempDir(), "tier.lsnp")
	if err := r.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	// Kill shard 0's row 1 by hand: ord → -1 in docs, row → state.Dead.
	sections := resection(t, path)
	var victim string
	patchSection(t, sections, "s0/docs", patchDocs(t, func(docs []corpus.Document, ords []int64) {
		victim = docs[1].ID
		ords[1] = -1
	}))
	patchSection(t, sections, "s0/state", func(b []byte) []byte {
		var st shardState
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		st.Dead = append(st.Dead, 1)
		out, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	if err := snapfile.Write(path, sections); err != nil {
		t.Fatal(err)
	}

	r2, f, err := Restore(path, Config{Engine: engine.Config{BatchTick: time.Millisecond}}, true)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer f.Close()
	defer closeRouter(t, r2)
	if st := r2.Stats(); st.Tombstones != 1 {
		t.Fatalf("restored %d tombstones, want 1", st.Tombstones)
	}
	for qi, raw := range raws {
		hits, _ := r2.Search(raw, 40)
		for _, h := range hits {
			if h.ID == victim {
				t.Fatalf("query %d served tombstoned %q", qi, victim)
			}
		}
	}
	ctx := context.Background()
	if _, err := r2.Delete(ctx, victim); !errors.Is(err, engine.ErrUnknownID) {
		t.Fatalf("dead row still in registry: %v", err)
	}
	if _, _, err := r2.Submit(ctx, corpus.Document{ID: victim, Text: coll.Docs[3].Text}); err != nil {
		t.Fatalf("tombstoned ID not resubmittable: %v", err)
	}
}

// TestRestoreRejectsCorrupt: structural damage — a cut or inconsistent
// cell membership or document record, an older layout version — fails
// the verify=false open; payload bit-rot fails the verify=true open. The tier is saved
// with a cluster index (IVFMinRows 1) so the membership sections exist.
func TestRestoreRejectsCorrupt(t *testing.T) {
	coll, model, _ := synthFixture(t, 40, 6)
	r, err := New(coll, model, Config{Shards: 2, Engine: engine.Config{BatchTick: time.Millisecond, IVFMinRows: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRouter(t, r)
	good := filepath.Join(t.TempDir(), "tier.lsnp")
	if err := r.SaveSnapshot(good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		section string
		mangle  func([]byte) []byte
		verify  bool
	}{
		{"truncated-members", "s0/members", func(b []byte) []byte { return b[:len(b)-8] }, false},
		{"members-duplicate", "s0/members", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			copy(out[:4], out[4:8]) // row of entry 1 listed twice
			return out
		}, false},
		{"counts-overrun", "s0/counts", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(out, binary.LittleEndian.Uint32(out)+1)
			return out
		}, false},
		{"version-2", "meta", func(b []byte) []byte {
			var meta map[string]any
			if err := json.Unmarshal(b, &meta); err != nil {
				t.Fatal(err)
			}
			meta["version"] = 2
			out, _ := json.Marshal(meta)
			return out
		}, false},
		{"dead-row-oob", "s0/state", func(b []byte) []byte {
			var st shardState
			if err := json.Unmarshal(b, &st); err != nil {
				t.Fatal(err)
			}
			st.Dead = []int{10_000}
			out, _ := json.Marshal(&st)
			return out
		}, false},
		{"ord-dead-mismatch", "s0/docs", patchDocs(t, func(_ []corpus.Document, ords []int64) {
			ords[0] = -1 // dead ord without a Dead entry
		}), false},
		{"docs-count-mismatch", "s0/docs", func(b []byte) []byte {
			docs, ords, err := decodeDocs(b)
			if err != nil {
				t.Fatal(err)
			}
			return encodeDocs(docs[1:], ords[1:]) // one row fewer than V
		}, false},
		{"docs-offset-backwards", "s0/docs", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			le := binary.LittleEndian
			at := 8 + 16*int(le.Uint64(out))                // text 0's end offset
			le.PutUint64(out[at+8:], le.Uint64(out[at:])-1) // text 1 ends before text 0
			return out
		}, false},
		{"docs-offset-past-blob", "s0/docs", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			n := int(binary.LittleEndian.Uint64(out))
			at := 8 + 24*n - 8 // the last text end: the blob's length
			binary.LittleEndian.PutUint64(out[at:], binary.LittleEndian.Uint64(out[at:])+1)
			return out
		}, false},
		{"docs-truncated-header", "s0/docs", func(b []byte) []byte {
			n := int(binary.LittleEndian.Uint64(b))
			return b[:8+24*n-4]
		}, false},
		{"docs-trailing-bytes", "s0/docs", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 'x')
		}, false},
		{"bit-rot", "s1/V", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/2] ^= 0x01
			return out
		}, true},
	}
	// The cases whose rejection must name its cause.
	wantErr := map[string]string{
		"version-2":             "snapshot version 2, this binary reads 3",
		"ord-dead-mismatch":     "dead=false but ord=-1",
		"docs-count-mismatch":   "docs section",
		"docs-offset-backwards": "row 1 offsets",
		"docs-offset-past-blob": "past the",
		"docs-truncated-header": "cannot hold",
		"docs-trailing-bytes":   "1 trailing bytes",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sections := resection(t, good)
			patchSection(t, sections, tc.section, tc.mangle)
			bad := filepath.Join(t.TempDir(), "bad.lsnp")
			if err := snapfile.Write(bad, sections); err != nil {
				t.Fatal(err)
			}
			if tc.name == "bit-rot" {
				// Re-writing recomputes CRCs; flip the byte in the final
				// file instead so the stored CRC disagrees.
				f, err := snapfile.Open(bad)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
				flipPayloadByte(t, bad, "s1/V")
			}
			r2, f, err := Restore(bad, Config{}, tc.verify)
			if err == nil {
				closeRouter(t, r2)
				f.Close()
				t.Fatal("corrupt snapshot accepted")
			}
			if want := wantErr[tc.name]; !strings.Contains(err.Error(), want) {
				t.Fatalf("%s rejected with %q, want it to say %q", tc.name, err, want)
			}
		})
	}
}

// flipPayloadByte flips one byte inside the named section of an
// on-disk container without recomputing its CRC.
func flipPayloadByte(t *testing.T, path, name string) {
	t.Helper()
	f, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := f.Section(name)
	if !ok {
		t.Fatalf("section %q missing", name)
	}
	off, n := f.SectionOffset(name), len(b)
	f.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off+int64(n)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
