package text

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// tokenizeSeeds is the corpus both tokenizer fuzz targets start from.
var tokenizeSeeds = []string{
	"Human machine INTERFACE for ABC computer applications",
	"user's users' x's's ''s '' ' don't",
	"café naïve Über STRASSE Ça",
	"\xff\xfe broken \x80 utf8 \xf0\x28\x8c\x28",
	strings.Repeat("a", 1<<16) + " " + strings.Repeat("b'", 1<<10),
	"",
	"   \t\n\r  ",
	"123 4x5 0'9",
	"İstanbul ǅungla Straße ÉCOLE's ٣٤ ４２ 東京タワー 'S",
}

// FuzzTokenize drives the lexical front end with arbitrary byte strings —
// non-UTF-8 sequences, huge tokens, pathological apostrophe stacks — and
// checks the invariants the rest of the pipeline depends on: no panics,
// no empty tokens, tokens already lowercase and normalization-stable
// (re-tokenizing a token yields exactly that token), and the full
// vocabulary/count path agreeing with itself on dimensions.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("Tokenize(%q) produced an empty token", s)
			}
			if !utf8.ValidString(tok) {
				t.Fatalf("Tokenize(%q) produced invalid UTF-8 token %q", s, tok)
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("Tokenize(%q) produced non-lowercase token %q", s, tok)
			}
			// Normalization stability: a token fed back through the
			// tokenizer must survive unchanged, or query-side Count would
			// disagree with document-side BuildVocabulary.
			again := Tokenize(tok)
			if len(again) != 1 || again[0] != tok {
				t.Fatalf("token %q is not tokenization-stable: %q", tok, again)
			}
		}
		// The full pipeline must hold its dimension contract for any input.
		v := BuildVocabulary([]string{s, s}, ParseOptions{MinDocs: 1, IncludeBigrams: true})
		counts := v.Count(s)
		if len(counts) != v.Size() {
			t.Fatalf("Count length %d != vocabulary size %d", len(counts), v.Size())
		}
		for i, c := range counts {
			if c <= 0 {
				t.Fatalf("term %q from this document counted %v times in it", v.Terms[i], c)
			}
		}
	})
}
