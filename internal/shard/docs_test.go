package shard

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/snapfile"
)

// FuzzDecodeDocs: the docs record decoder never panics, and whatever it
// accepts re-encodes to the same bytes — the record has one encoding,
// so a decoded tier saves back unchanged.
func FuzzDecodeDocs(f *testing.F) {
	f.Add(encodeDocs(nil, nil))
	f.Add(encodeDocs([]corpus.Document{{ID: "a", Text: "alpha beta"}, {ID: "", Text: ""}, {ID: "c\xff", Text: "<&> "}},
		[]int64{7, -1, 0}))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("not a record"))
	f.Fuzz(func(t *testing.T, b []byte) {
		docs, ords, err := decodeDocs(b)
		if err != nil {
			return
		}
		if len(docs) != len(ords) {
			t.Fatalf("%d docs, %d ords", len(docs), len(ords))
		}
		if out := encodeDocs(docs, ords); !bytes.Equal(out, b) {
			t.Fatalf("accepted record re-encodes differently:\n in %q\nout %q", b, out)
		}
	})
}

// TestRestoredDocsAreTheSavedBytes: ids and texts come back byte for
// byte — markup characters, U+2028 and invalid UTF-8 included, which a
// JSON record would have escaped or replaced with U+FFFD.
func TestRestoredDocsAreTheSavedBytes(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			coll, model, _ := synthFixture(t, 40, 6)
			cfg := Config{Shards: shards, Engine: engine.Config{BatchTick: time.Millisecond}}
			live, err := New(coll, model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer closeRouter(t, live)
			ctx := context.Background()
			odd := []string{"<b>&amp;</b>", "line sep", "bad\xff\xfeutf8", "\x00nul"}
			for i, s := range odd {
				doc := corpus.Document{ID: "odd-" + s, Text: s + " " + coll.Docs[i].Text + " " + s}
				if _, _, err := live.Submit(ctx, doc); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "tier.lsnp")
			if err := live.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			restored, f, err := Restore(path, Config{Engine: cfg.Engine}, true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			defer closeRouter(t, restored)
			seen := 0
			for s := 0; s < shards; s++ {
				got, want := restored.ShardSnapshot(s).Docs, live.ShardSnapshot(s).Docs
				if len(got) != len(want) {
					t.Fatalf("shard %d: %d docs restored, %d saved", s, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || got[i].Text != want[i].Text {
						t.Fatalf("shard %d row %d: restored {%q %q}, saved {%q %q}",
							s, i, got[i].ID, got[i].Text, want[i].ID, want[i].Text)
					}
					if strings.HasPrefix(got[i].ID, "odd-") {
						seen++
					}
				}
			}
			if seen != len(odd) {
				t.Fatalf("%d of %d odd documents restored", seen, len(odd))
			}
		})
	}
}

// TestParallelRestoreRejectsCrossShardDuplicate: shards restore
// concurrently, but they share one ID registry, so a live ID stored on
// two shards is still rejected — and the engines already started are
// closed.
func TestParallelRestoreRejectsCrossShardDuplicate(t *testing.T) {
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
	shard0 := r.ShardSnapshot(0).Docs[0].ID
	sections := resection(t, path)
	patchSection(t, sections, "s2/docs", patchDocs(t, func(docs []corpus.Document, _ []int64) {
		docs[len(docs)-1].ID = shard0
	}))
	if err := snapfile.Write(path, sections); err != nil {
		t.Fatal(err)
	}
	r2, f, err := Restore(path, Config{}, false)
	if err == nil {
		closeRouter(t, r2)
		f.Close()
		t.Fatal("a live ID on two shards was accepted")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("live document ID %q appears twice", shard0)) {
		t.Fatalf("cross-shard duplicate rejected with %q", err)
	}
}
