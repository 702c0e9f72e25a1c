package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snapfile"
	"repro/internal/weight"
)

// readDatabase encodes a library database and reads it back in memory.
func readDatabase(t *testing.T, coll *corpus.Collection, model *core.Model) (*corpus.Collection, *core.Model) {
	t.Helper()
	sections, err := DatabaseSections(coll, model)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapfile.Encode(sections)
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapfile.OpenBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	gotColl, gotModel, err := ReadDatabase(f)
	if err != nil {
		t.Fatal(err)
	}
	return gotColl, gotModel
}

func medDatabase(t *testing.T) (*corpus.Collection, *core.Model) {
	t.Helper()
	coll := corpus.MED()
	model, err := core.BuildCollection(coll, core.Config{K: 2, Scheme: weight.LogEntropy, Method: core.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	return coll, model
}

// TestDatabaseSectionsAreServerSections: the library writer's container
// is, section for section, what a 1-shard tier saves for the same
// collection and model. For a model holding folded rows the one
// difference is the model header's svdDocs: New's view reports every
// row folded, the library keeps the model's own provenance.
func TestDatabaseSectionsAreServerSections(t *testing.T) {
	for _, folded := range []bool{false, true} {
		coll, model, _ := synthFixture(t, 40, 6)
		if folded {
			extra := []corpus.Document{{ID: "f0", Text: coll.Docs[3].Text}, {ID: "f1", Text: coll.Docs[8].Text}}
			model.FoldInDocs(coll.DocVectors(extra))
			coll = corpus.Restore(append(append([]corpus.Document(nil), coll.Docs...), extra...), coll.Vocab, coll.ParseOptions())
		}
		lib, err := DatabaseSections(coll, model)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(coll, model, Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "tier.lsnp")
		err = r.SaveSnapshot(path)
		closeRouter(t, r)
		if err != nil {
			t.Fatal(err)
		}
		saved := resection(t, path)
		if len(saved) != len(lib) {
			t.Fatalf("folded=%v: server saved %d sections, library wrote %d", folded, len(saved), len(lib))
		}
		for i, s := range saved {
			if lib[i].Name != s.Name {
				t.Fatalf("folded=%v: section %d is %q, server saved %q", folded, i, lib[i].Name, s.Name)
			}
			if bytes.Equal(lib[i].Data, s.Data) {
				continue
			}
			if !folded || s.Name != "s0/model" {
				t.Fatalf("folded=%v: section %q differs", folded, s.Name)
			}
			var a, b map[string]any
			if json.Unmarshal(lib[i].Data, &a) != nil || json.Unmarshal(s.Data, &b) != nil {
				t.Fatal("model header is not JSON")
			}
			if a["svdDocs"] != float64(coll.Size()-2) || b["svdDocs"] != float64(0) {
				t.Fatalf("svdDocs: library %v, server %v", a["svdDocs"], b["svdDocs"])
			}
			delete(a, "svdDocs")
			delete(b, "svdDocs")
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("model headers differ beyond svdDocs: %v vs %v", a, b)
			}
		}
	}
}

// TestDatabaseBuildAndQuery: the MED worked example read back from its
// database keeps the paper's 18×14 shape and ranks M9 first.
func TestDatabaseBuildAndQuery(t *testing.T) {
	coll, model := medDatabase(t)
	gotColl, gotModel := readDatabase(t, coll, model)
	if gotColl.Terms() != 18 || gotColl.Size() != 14 || gotModel.NumDocs() != 14 {
		t.Fatalf("shape %dx%d, model rows %d", gotColl.Terms(), gotColl.Size(), gotModel.NumDocs())
	}
	ranked := gotModel.Rank(gotColl.QueryVector(corpus.MEDQuery))
	if gotColl.Docs[ranked[0].Doc].ID != "M9" {
		t.Fatalf("top doc %s, want M9", gotColl.Docs[ranked[0].Doc].ID)
	}
}

// TestDatabaseRoundTrip: a database read back has the vocabulary, the
// aliases and the rankings it was saved with, bit for bit.
func TestDatabaseRoundTrip(t *testing.T) {
	coll, model := medDatabase(t)
	gotColl, gotModel := readDatabase(t, coll, model)
	if !reflect.DeepEqual(gotColl.Vocab.Terms, coll.Vocab.Terms) {
		t.Fatal("vocabulary changed")
	}
	r1 := model.Rank(coll.QueryVector(corpus.MEDQuery))
	r2 := gotModel.Rank(gotColl.QueryVector(corpus.MEDQuery))
	for i := range r1 {
		if r1[i].Doc != r2[i].Doc || math.Float64bits(r1[i].Score) != math.Float64bits(r2[i].Score) {
			t.Fatal("loaded database ranks differently")
		}
	}
	// The alias survives: "cultures" still folds onto "culture".
	if qv := gotColl.QueryVector("cultures"); qv[gotColl.Vocab.Index["culture"]] != 1 {
		t.Fatal("alias lost in round trip")
	}
}

// TestDatabasePreservesFoldedDocs: folded rows keep their documents and
// the model its fold provenance; a model folded without its documents
// is refused at save.
func TestDatabasePreservesFoldedDocs(t *testing.T) {
	coll, model := medDatabase(t)
	model.FoldInDocs(coll.DocVectors(corpus.MEDUpdateTopics))
	if _, err := DatabaseSections(coll, model); err == nil {
		t.Fatal("model with 16 rows saved over 14 documents")
	}
	all := corpus.Restore(append(append([]corpus.Document(nil), coll.Docs...), corpus.MEDUpdateTopics...),
		coll.Vocab, coll.ParseOptions())
	gotColl, gotModel := readDatabase(t, all, model)
	if gotModel.NumDocs() != 16 || gotModel.FoldedDocs() != 2 {
		t.Fatalf("folded state lost: %d docs, %d folded", gotModel.NumDocs(), gotModel.FoldedDocs())
	}
	if gotColl.Size() != 16 || gotColl.Docs[14].ID != "M15" || gotColl.Docs[15].ID != "M16" {
		t.Fatalf("folded documents lost: %d docs", gotColl.Size())
	}
}
