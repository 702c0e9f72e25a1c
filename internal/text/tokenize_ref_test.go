package text

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unsafe"

	"repro/internal/sparse"
)

// tokenizeRef is the tokenizer as it was before Tokenize tracked byte
// spans: every token assembled rune by rune in a strings.Builder. It is
// the behaviour Tokenize is pinned to.
func tokenizeRef(s string) []string {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		if t := normalizeToken(b.String()); t != "" {
			toks = append(toks, t)
		}
		b.Reset()
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return toks
}

func checkTokenizeMatchesRef(t *testing.T, s string) {
	t.Helper()
	if got, want := Tokenize(s), tokenizeRef(s); !slices.Equal(got, want) {
		t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
	}
}

// TestTokenizeMatchesReference drives both tokenizers with random strings
// over the alphabet where a span-based tokenizer could diverge: runes
// whose lowercase has a different byte length (İ, ǅ), none (ß, digits,
// CJK), apostrophes at every position, and bytes that are not UTF-8.
func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizeSeeds {
		checkTokenizeMatchesRef(t, s)
	}
	alphabet := []string{
		"a", "b", "z", "A", "Q", "Z", "0", "7", "'", "'", "s", "S", " ", "\t", "-", ".", ",",
		"É", "é", "İ", "ı", "ǅ", "ǆ", "ß", "ẞ", "Σ", "ς", "٣", "４", "東", "京", "ー",
		"\xff", "\x80", "\xc3", "\xf0\x28", "’", "�",
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 5000; trial++ {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkTokenizeMatchesRef(t, b.String())
	}
}

// FuzzTokenizeMatchesReference is the same differential check from the
// shared seed corpus.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkTokenizeMatchesRef(t, s) })
}

// TestVocabularyDoesNotPinDocuments: lowercase tokens are substrings of
// the document, so terms must be copied on their way into the vocabulary.
func TestVocabularyDoesNotPinDocuments(t *testing.T) {
	doc := "latent semantic indexing of latent structure"
	v := BuildVocabulary([]string{doc, doc}, ParseOptions{MinDocs: 2})
	if v.Size() == 0 {
		t.Fatal("empty vocabulary")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	for _, term := range v.Terms {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(term))); p >= lo && p < lo+uintptr(len(doc)) {
			t.Fatalf("term %q aliases the document text", term)
		}
	}
}

// TestCountIntoMatchesTally pins CountInto — ascending unique indices,
// frequencies as values, buffers reused — against a map tally, with
// repeated words, bigrams, aliases, stop words and out-of-vocabulary
// words in play, and Count as its scatter.
func TestCountIntoMatchesTally(t *testing.T) {
	docs := []string{
		"the cat sat on the mat with the other cat",
		"a cat and a dog sat; cats sat",
		"dog days: the dog sat, the dog ran",
	}
	opts := ParseOptions{MinDocs: 1, IncludeBigrams: true, Aliases: map[string]string{"cats": "cat"}}
	v := BuildVocabulary(docs, opts)
	var c sparse.Vec
	for _, s := range append(docs, "", "zebra unicorn", "cat cat cat zebra cat sat") {
		toks := Tokenize(s)
		v.CountInto(&c, toks)
		want := map[int]float64{}
		eachUnit(toks, &v.opts, func(u string) {
			if i, ok := v.Index[u]; ok {
				want[i]++
			}
		})
		if len(c.Idx) != len(want) || len(c.Val) != len(want) {
			t.Fatalf("%q: %d indices, %d values, want %d", s, len(c.Idx), len(c.Val), len(want))
		}
		for p, i := range c.Idx {
			if p > 0 && c.Idx[p-1] >= i {
				t.Fatalf("%q: indices not strictly ascending: %v", s, c.Idx)
			}
			if c.Val[p] != want[i] {
				t.Fatalf("%q: term %q counted %v, want %v", s, v.Terms[i], c.Val[p], want[i])
			}
		}
		dense := v.Count(s)
		for i, f := range dense {
			if f != want[i] {
				t.Fatalf("%q: Count[%d] = %v, want %v", s, i, f, want[i])
			}
		}
	}
}
