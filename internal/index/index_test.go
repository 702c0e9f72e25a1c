package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snapfile"
	"repro/internal/text"
	"repro/internal/weight"
)

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := Build(corpus.MEDTopics, corpus.MEDParseOptions(),
		core.Config{K: 2, Scheme: weight.LogEntropy, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildAndQuery(t *testing.T) {
	ix := buildTestIndex(t)
	if ix.Coll.Terms() != 18 || ix.Coll.Size() != 14 {
		t.Fatalf("shape %dx%d", ix.Coll.Terms(), ix.Coll.Size())
	}
	ranked := ix.Model.Rank(ix.Coll.QueryVector(corpus.MEDQuery))
	if ix.Coll.Docs[ranked[0].Doc].ID != "M9" {
		t.Fatalf("top doc %s", ix.Coll.Docs[ranked[0].Doc].ID)
	}
}

func TestBuildRejectsEmptyVocabulary(t *testing.T) {
	docs := []corpus.Document{{ID: "a", Text: "unique words only here"}}
	if _, err := Build(docs, text.ParseOptions{MinDocs: 2}, core.Config{K: 2}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRoundTripInMemory(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same vocabulary, same rankings.
	if got.Coll.Terms() != ix.Coll.Terms() {
		t.Fatal("vocabulary size changed")
	}
	for i, term := range ix.Coll.Vocab.Terms {
		if got.Coll.Vocab.Terms[i] != term {
			t.Fatal("vocabulary order changed")
		}
	}
	q := got.Coll.QueryVector(corpus.MEDQuery)
	r1 := ix.Model.Rank(ix.Coll.QueryVector(corpus.MEDQuery))
	r2 := got.Model.Rank(q)
	for i := range r1 {
		if r1[i].Doc != r2[i].Doc || math.Float64bits(r1[i].Score) != math.Float64bits(r2[i].Score) {
			t.Fatal("loaded index ranks differently")
		}
	}
	// Alias survives: "cultures" still folds.
	qv := got.Coll.QueryVector("cultures")
	if qv[got.Coll.Vocab.Index["culture"]] != 1 {
		t.Fatal("alias lost in round trip")
	}
}

func TestRoundTripPreservesFoldedDocs(t *testing.T) {
	ix := buildTestIndex(t)
	for _, d := range corpus.MEDUpdateTopics {
		ix.AddFolded(d)
	}
	if ix.NumDocs() != 16 || ix.Doc(15).ID != "M16" {
		t.Fatalf("AddFolded bookkeeping wrong: %d docs", ix.NumDocs())
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.NumDocs() != 16 || got.Model.FoldedDocs() != 2 {
		t.Fatalf("folded state lost: %d docs, %d folded", got.Model.NumDocs(), got.Model.FoldedDocs())
	}
	// The folded documents' metadata survives too.
	if got.NumDocs() != 16 || got.Doc(14).ID != "M15" || got.Doc(15).ID != "M16" {
		t.Fatalf("folded metadata lost: %d docs, last %q", got.NumDocs(), got.Doc(got.NumDocs()-1).ID)
	}
	// A model folded outside AddFolded cannot be persisted consistently —
	// Read must reject the mismatch rather than mis-index documents.
	ix2 := buildTestIndex(t)
	ix2.Model.FoldInDocs(ix2.Coll.DocVectors(corpus.MEDUpdateTopics))
	var buf2 bytes.Buffer
	if _, err := ix2.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf2); err == nil {
		t.Fatal("expected metadata/model mismatch error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "med.lsi")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coll.Size() != 14 {
		t.Fatalf("loaded %d docs", got.Coll.Size())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.lsi")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
	var buf bytes.Buffer
	if _, err := buildTestIndex(t).WriteTo(&buf); err != nil {
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
	// One flipped payload byte must trip its section's CRC.
	f, err := snapfile.OpenBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	rot := append([]byte(nil), full...)
	rot[f.SectionOffset("V")+3] ^= 0x40
	if _, err := Read(bytes.NewReader(rot)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("bit rot: got %v, want a CRC error", err)
	}
	// A container from a different format version is refused outright.
	old := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(old[4:], snapfile.Version+1)
	binary.LittleEndian.PutUint32(old[36:], crc32.ChecksumIEEE(old[:36]))
	if _, err := Read(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version: got %v, want a version error", err)
	}
}
