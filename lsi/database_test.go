package lsi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapfile"
	"repro/internal/weight"
)

// oddDocs are MED documents whose ids and texts carry bytes a text
// format would escape or replace: markup, U+2028, NUL and invalid UTF-8.
func oddDocs() []Document {
	docs := medDocs()
	odd := []string{"<b>&amp;</b>", "line sep", "\x00nul", "bad\xff\xfeutf8"}
	for i, s := range odd {
		docs[i].ID += s
		docs[i].Text = s + " " + docs[i].Text + " " + s
	}
	return docs
}

// sameDatabase fails unless got holds want's documents byte for byte,
// its vocabulary and parse options, and ranks a query identically.
func sameDatabase(t *testing.T, label string, got, want *Idx) {
	t.Helper()
	if got.Docs() != want.Docs() {
		t.Fatalf("%s: %d docs, want %d", label, got.Docs(), want.Docs())
	}
	for i, d := range want.coll.Docs {
		if g := got.coll.Docs[i]; g.ID != d.ID || g.Text != d.Text {
			t.Fatalf("%s: doc %d came back {%q %q}, saved {%q %q}", label, i, g.ID, g.Text, d.ID, d.Text)
		}
	}
	if !reflect.DeepEqual(got.coll.Vocab.Terms, want.coll.Vocab.Terms) {
		t.Fatalf("%s: vocabulary changed", label)
	}
	if g, w := got.coll.ParseOptions(), want.coll.ParseOptions(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: parse options %+v, built with %+v", label, g, w)
	}
	sameHits(t, label, got.Search("blood abnormalities of rats", 6), want.Search("blood abnormalities of rats", 6))
}

func sameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Text != want[i].Text ||
			math.Float64bits(got[i].Cosine) != math.Float64bits(want[i].Cosine) {
			t.Fatalf("%s: hit %d is {%q %v}, want {%q %v}", label, i, got[i].ID, got[i].Cosine, want[i].ID, want[i].Cosine)
		}
	}
}

// TestExactRoundTrip: ids and texts come back byte-equal through Save and
// Load and through WriteTo and Read, with the vocabulary and the parse
// options — the stopword set included — they were built with.
func TestExactRoundTrip(t *testing.T) {
	x, err := Index(oddDocs(), Options{K: 2, RawWeighting: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.coll.ParseOptions().Stopwords) == 0 {
		t.Fatal("built without an explicit stopword set")
	}
	x.Add(Document{ID: "M15\xc0", Text: "behavior of rats after detected rise in oestrogen "})

	path := filepath.Join(t.TempDir(), "db.lsnp")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sameDatabase(t, "Save/Load", loaded, x)

	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameDatabase(t, "WriteTo/Read", read, x)
}

// searchServer asks a server's GET /search, as a client would.
func searchServer(t *testing.T, s *server.Server, q string, n int) []Hit {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/search?q=%s&n=%d", url.QueryEscape(q), n), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/search %q: %d %s", q, rec.Code, rec.Body)
	}
	var res []server.SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	hits := make([]Hit, len(res))
	for i, r := range res {
		hits[i] = Hit{ID: r.ID, Text: r.Text, Cosine: r.Cosine}
	}
	return hits
}

func closeServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

var medQueries = []string{
	"age of children with blood abnormalities",
	"rats oestrogen",
	"depressed patients culture",
	"fast generation",
}

// TestLibraryFileServes: a database lsi.Save wrote restores onto a
// served tier, and its /search answers equal lsi.Search in ids, texts
// and score bits — fresh, and after a fold-in.
func TestLibraryFileServes(t *testing.T) {
	for _, add := range []bool{false, true} {
		t.Run(fmt.Sprintf("add=%v", add), func(t *testing.T) {
			x := build(t)
			if add {
				x.Add(Document{ID: "M15", Text: "behavior of rats after detected rise in oestrogen"})
			}
			path := filepath.Join(t.TempDir(), "db.lsnp")
			if err := x.Save(path); err != nil {
				t.Fatal(err)
			}
			router, f, err := shard.Restore(path, shard.Config{}, true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s := server.NewFromRouter(router, server.Options{Logf: t.Logf})
			defer closeServer(t, s)
			for _, q := range medQueries {
				sameHits(t, q, searchServer(t, s, q, 8), x.Search(q, 8))
			}
		})
	}
}

// TestServerFileLoads: a 3-shard tier's -save-model file, taken after
// submits, deletes and a compaction, loads into the library, and
// lsi.Search answers as the tier's /search does. The "unbased" tier
// starts from a model holding folded rows, so it cannot compact and its
// file keeps tombstones and folded rows for Load to drop and merge.
func TestServerFileLoads(t *testing.T) {
	for _, unbased := range []bool{false, true} {
		t.Run(fmt.Sprintf("unbased=%v", unbased), func(t *testing.T) {
			synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 9, Docs: 60, Topics: 5})
			coll := synth.Collection
			model, err := core.BuildCollection(coll, core.Config{K: 6, Scheme: weight.LogEntropy, Method: core.MethodDense})
			if err != nil {
				t.Fatal(err)
			}
			if unbased {
				extra := []corpus.Document{{ID: "pre-0", Text: coll.Docs[1].Text}, {ID: "pre-1", Text: coll.Docs[2].Text}}
				model.FoldInDocs(coll.DocVectors(extra))
				coll = corpus.Restore(append(append([]corpus.Document(nil), coll.Docs...), extra...), coll.Vocab, coll.ParseOptions())
			}
			s, err := server.NewWithOptions(coll, model, server.Options{Shards: 3, Logf: t.Logf,
				Engine: engine.Config{BatchTick: time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			defer closeServer(t, s)
			router := s.Router()
			ctx := context.Background()
			submit := func(from, to int) {
				for i := from; i < to; i++ {
					doc := corpus.Document{ID: fmt.Sprintf("extra-%02d", i), Text: coll.Docs[(7*i+3)%coll.Size()].Text}
					if _, _, err := router.Submit(ctx, doc); err != nil {
						t.Fatal(err)
					}
				}
			}
			submit(0, 6)
			for _, id := range []string{coll.Docs[4].ID, "extra-01"} {
				if _, err := router.Delete(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			if err := router.Compact(); err != nil && !unbased {
				t.Fatal(err)
			}
			submit(6, 10)
			for _, id := range []string{coll.Docs[9].ID, "extra-07"} {
				if _, err := router.Delete(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "tier.lsnp")
			if err := router.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			if st := router.Stats(); (st.Tombstones > 0) != unbased {
				t.Fatalf("saved tier holds %d tombstones", st.Tombstones)
			}
			x, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if st := router.Stats(); x.Docs() != st.Documents {
				t.Fatalf("loaded %d docs, the tier serves %d", x.Docs(), st.Documents)
			}
			for _, q := range synth.Queries {
				sameHits(t, q.Text, x.Search(q.Text, 12), searchServer(t, s, q.Text, 12))
			}
		})
	}
}

// TestLoadRejectsForeignFiles: a file in the retired library format, and
// a 3-shard file whose shards do not share one basis, are refused with
// errors that say so.
func TestLoadRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	x := build(t)
	model, err := x.model.SnapshotSections("")
	if err != nil {
		t.Fatal(err)
	}
	retired := filepath.Join(dir, "retired.lsi")
	header := snapfile.Section{Name: "index", Data: []byte(`{"version":1,"doc_ids":[],"doc_texts":[]}`)}
	if err := snapfile.Write(retired, append([]snapfile.Section{header}, model...)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(retired); err == nil || !strings.Contains(err.Error(), "retired library index format") {
		t.Fatalf("retired index file: got %v", err)
	}

	synth := corpus.GenerateSynth(corpus.SynthOptions{Seed: 9, Docs: 40, Topics: 5})
	m, err := core.BuildCollection(synth.Collection, core.Config{K: 4, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.New(synth.Collection, m, shard.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	tier := filepath.Join(dir, "tier.lsnp")
	err = router.SaveSnapshot(tier)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if cerr := router.Close(ctx); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	f, err := snapfile.Open(tier)
	if err != nil {
		t.Fatal(err)
	}
	var sections []snapfile.Section
	for _, name := range f.Names() {
		b, _ := f.Section(name)
		b = append([]byte(nil), b...)
		if name == "s1/U" {
			binary.LittleEndian.PutUint64(b, math.Float64bits(math.Float64frombits(binary.LittleEndian.Uint64(b))+1))
		}
		sections = append(sections, snapfile.Section{Name: name, Data: b})
	}
	f.Close()
	if err := snapfile.Write(tier, sections); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(tier); err == nil || !strings.Contains(err.Error(), `section "s1/U" differs from shard 0's`) {
		t.Fatalf("3-shard file with an altered U: got %v", err)
	}
}

// TestReadRejectsGarbage: anything but an intact container is refused —
// garbage, truncation, payload bit rot (by its CRC), another container
// version.
func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
	var buf bytes.Buffer
	if _, err := build(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full)); err != nil {
		t.Fatalf("intact image rejected: %v", err)
	}
	for _, cut := range []int{10, 80, len(full) / 2} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("expected error for truncation at %d bytes", cut)
		}
	}
	f, err := snapfile.OpenBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	rot := append([]byte(nil), full...)
	rot[f.SectionOffset("s0/V")+3] ^= 0x40
	if _, err := Read(bytes.NewReader(rot)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("bit rot: got %v, want a CRC error", err)
	}
	old := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(old[4:], snapfile.Version+1)
	binary.LittleEndian.PutUint32(old[36:], crc32.ChecksumIEEE(old[:36]))
	if _, err := Read(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version: got %v, want a version error", err)
	}
}
