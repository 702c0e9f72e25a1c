package lsi

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func medDocs() []Document {
	return []Document{
		{ID: "M1", Text: "study of depressed patients after discharge with regard to age of onset and culture"},
		{ID: "M2", Text: "culture of pleuropneumonia like organisms found in vaginal discharge of patients"},
		{ID: "M3", Text: "study showed oestrogen production is depressed by ovarian irradiation"},
		{ID: "M4", Text: "cortisone rapidly depressed the secondary rise in oestrogen output of patients"},
		{ID: "M5", Text: "boys tend to react to death anxiety by acting out behavior while girls tended to become depressed"},
		{ID: "M6", Text: "changes in children's behavior following hospitalization studied a week after discharge"},
		{ID: "M7", Text: "surgical technique to close ventricular septal defects"},
		{ID: "M8", Text: "chromosomal abnormalities in blood cultures and bone marrow from leukaemic patients"},
		{ID: "M9", Text: "study of christmas disease with respect to generation and culture"},
		{ID: "M10", Text: "insulin not responsible for metabolic abnormalities accompanying a prolonged fast"},
		{ID: "M11", Text: "close relationship between high blood pressure and vascular disease"},
		{ID: "M12", Text: "mouse kidneys show a decline with respect to age in the ability to concentrate the urine during a water fast"},
		{ID: "M13", Text: "fast cell generation in the eye lens epithelium of rats"},
		{ID: "M14", Text: "fast rise of cerebral oxygen pressure in rats"},
	}
}

func build(t *testing.T) *Idx {
	t.Helper()
	// Raw weighting + k=2 reproduces the paper's worked example.
	x, err := Index(medDocs(), Options{K: 2, RawWeighting: true})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestIndexAndSearch(t *testing.T) {
	x := build(t)
	if x.Terms() == 0 || x.Docs() != 14 || x.Factors() != 2 {
		t.Fatalf("stats: %d terms %d docs k=%d", x.Terms(), x.Docs(), x.Factors())
	}
	hits := x.Search("age of children with blood abnormalities", 3)
	if len(hits) != 3 {
		t.Fatalf("got %d hits", len(hits))
	}
	if hits[0].ID != "M9" {
		t.Fatalf("top hit %s want M9 (the latent-association result)", hits[0].ID)
	}
	if hits[0].Cosine < hits[1].Cosine {
		t.Fatal("hits not sorted")
	}
}

func TestSearchUnknownWords(t *testing.T) {
	x := build(t)
	if hits := x.Search("zzzz qqqq", 5); hits != nil {
		t.Fatalf("unknown-word query returned %v", hits)
	}
}

func TestSearchSimilar(t *testing.T) {
	x := build(t)
	hits, err := x.SearchSimilar("M13", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.ID == "M13" {
			t.Fatal("reference document returned")
		}
	}
	// M14 (the other rats topic) should be the closest.
	if hits[0].ID != "M14" {
		t.Fatalf("most similar to M13 is %s want M14", hits[0].ID)
	}
	if _, err := x.SearchSimilar("nope", 3); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestAddAndStaleness(t *testing.T) {
	x := build(t)
	if s := x.Staleness(); s > 1e-9 {
		t.Fatalf("fresh staleness %v", s)
	}
	x.Add(Document{ID: "M15", Text: "behavior of rats after detected rise in oestrogen"})
	if x.Docs() != 15 {
		t.Fatalf("docs %d", x.Docs())
	}
	if s := x.Staleness(); s <= 0 {
		t.Fatalf("staleness after fold %v", s)
	}
	hits := x.Search("rats oestrogen", 3)
	found := false
	for _, h := range hits {
		if h.ID == "M15" {
			found = true
		}
	}
	if !found {
		t.Fatalf("added doc not retrievable: %v", hits)
	}
}

func TestRelatedTerms(t *testing.T) {
	x := build(t)
	near, err := x.RelatedTerms("oestrogen", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(near) != 4 {
		t.Fatalf("got %d terms", len(near))
	}
	// "depressed" shares the hormone-topic contexts (M3, M4).
	if !strings.Contains(strings.Join(near, " "), "depressed") {
		t.Fatalf("expected 'depressed' among neighbours of 'oestrogen': %v", near)
	}
	if _, err := x.RelatedTerms("nonword", 3); err == nil {
		t.Fatal("expected error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x := build(t)
	x.Add(Document{ID: "M15", Text: "behavior of rats after detected rise in oestrogen"})
	path := filepath.Join(t.TempDir(), "db.lsi")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Docs() != 15 {
		t.Fatalf("loaded %d docs", got.Docs())
	}
	h1 := x.Search("blood abnormalities", 5)
	h2 := got.Search("blood abnormalities", 5)
	for i := range h1 {
		if h1[i].ID != h2[i].ID || math.Float64bits(h1[i].Cosine) != math.Float64bits(h2[i].Cosine) {
			t.Fatalf("loaded index ranks differently at %d: %+v vs %+v", i, h1[i], h2[i])
		}
	}
	// The added doc's metadata survives.
	sim, err := got.SearchSimilar("M15", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim) != 2 {
		t.Fatal("folded doc not addressable after reload")
	}
}

func TestSaveLoadFile(t *testing.T) {
	x := build(t)
	path := filepath.Join(t.TempDir(), "med.lsi")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Docs() != 14 || got.Terms() != x.Terms() || got.Factors() != 2 {
		t.Fatalf("loaded %d docs, %d terms, k=%d", got.Docs(), got.Terms(), got.Factors())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.lsi")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestWriteToRead(t *testing.T) {
	x := build(t)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Terms() != x.Terms() {
		t.Fatal("terms changed")
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := Index(nil, Options{}); err == nil {
		t.Fatal("expected error for no documents")
	}
	if _, err := Index([]Document{{ID: "a", Text: "all unique words here today"}}, Options{}); err == nil {
		t.Fatal("expected error for vocabulary-free collection")
	}
}

func TestIndexRejectsEmptyVocabulary(t *testing.T) {
	docs := []Document{{ID: "a", Text: "unique words only here"}}
	_, err := Index(docs, Options{K: 2, MinDocs: 2})
	if err == nil || !strings.Contains(err.Error(), "no indexable terms") {
		t.Fatalf("got %v, want a no-indexable-terms error", err)
	}
}

func TestBigramOption(t *testing.T) {
	docs := []Document{
		{ID: "1", Text: "blood pressure rises with vascular disease and blood pressure falls with rest"},
		{ID: "2", Text: "blood pressure measurement and vascular disease"},
		{ID: "3", Text: "behavioral pressure in crowded rooms"},
	}
	x, err := Index(docs, Options{K: 2, Bigrams: true, MinDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.Terms() <= 3 {
		t.Fatalf("bigram vocabulary suspiciously small: %d", x.Terms())
	}
}
