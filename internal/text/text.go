// Package text implements the lexical front end of the LSI pipeline:
// tokenization, stop-word removal, and vocabulary construction under a
// parsing rule. Per §5.4, "words are identified by looking for white spaces
// and punctuation in ASCII text" and "no stemming is used" — the tokenizer
// here matches that: lowercase, split on non-letter/digit, no morphology.
package text

import (
	"slices"
	"sort"
	"strings"
	"unicode"

	"repro/internal/sparse"
)

// Tokenize splits raw text into lowercase tokens on any rune that is not a
// letter, digit, or apostrophe (apostrophes inside words are kept so
// "user's" survives as one token, then normalized by dropping the suffix).
// A token that is already lowercase is a substring of s, not a copy.
func Tokenize(s string) []string {
	var toks []string
	// start is the byte offset of the open token (-1: none); folded records
	// whether any rune in it changes under ToLower.
	start, folded := -1, false
	flush := func(end int) {
		if start < 0 {
			return
		}
		span := s[start:end]
		if folded {
			span = strings.Map(unicode.ToLower, span)
		}
		// Normalization can consume the whole token (a bare "'" or "'s"):
		// emit nothing rather than an empty string, which would otherwise
		// become a phantom vocabulary term.
		if t := normalizeToken(span); t != "" {
			toks = append(toks, t)
		}
		start, folded = -1, false
	}
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = i
			}
			if unicode.ToLower(r) != r {
				folded = true
			}
		case r == '\'':
			// keep; handled in normalizeToken
			if start < 0 {
				start = i
			}
		default:
			flush(i)
		}
	}
	flush(len(s))
	return toks
}

func normalizeToken(t string) string {
	// Strip possessive suffixes and stray apostrophes: users' -> users,
	// user's -> user. Repeat until stable so stacked possessives
	// ("x's's") cannot leave a token that would normalize differently on
	// a second pass — Vocabulary.Count must map query tokens exactly as
	// BuildVocabulary mapped document tokens.
	for {
		u := strings.Trim(t, "'")
		u = strings.TrimSuffix(u, "'s")
		if u == t {
			return t
		}
		t = u
	}
}

// defaultStopwords is the compact SMART-style function-word list used by
// the example corpora. It intentionally includes the three words the paper
// drops from the example query: "of", "children", and "with" are handled by
// the list plus the >1-document parsing rule.
var defaultStopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a about above after again all also an and any are as at be because been
before being below between both but by can did do does doing down during
each few for from further had has have having he her here hers him his how
i if in into is it its itself just me more most my no nor not now of off on
once only or other our ours out over own same she should so some such than
that the their theirs them then there these they this those through to too
under until up very was we were what when where which while who whom why
will with without would you your yours
`) {
		defaultStopwords[w] = true
	}
}

// Stopwords returns a copy of the default stop-word set; callers may add or
// remove entries without affecting the shared list.
func Stopwords() map[string]bool {
	out := make(map[string]bool, len(defaultStopwords))
	for w := range defaultStopwords {
		out[w] = true
	}
	return out
}

// IsStopword reports membership in the default list.
func IsStopword(w string) bool { return defaultStopwords[w] }

// Vocabulary maps indexing terms to contiguous row indices. It retains the
// parsing options it was built with so Count tokenizes queries and new
// documents identically.
type Vocabulary struct {
	Terms []string       // index → term, sorted lexicographically
	Index map[string]int // term → index
	opts  ParseOptions
}

// ParseOptions controls vocabulary construction.
type ParseOptions struct {
	// MinDocs is the parsing rule of §3: a keyword must appear in more than
	// one document to be indexed. MinDocs=2 reproduces the paper's rule;
	// MinDocs=1 indexes every non-stopword.
	MinDocs int
	// Stopwords, when nil, defaults to the built-in list. An explicitly
	// empty (but non-nil) map disables stopping.
	Stopwords map[string]bool
	// MinLength drops tokens shorter than this many runes (default 1).
	MinLength int
	// Aliases folds surface forms together before counting (e.g.
	// "cultures" → "culture" in the paper's §3 example, whose keyword
	// tagging folds that one plural). This is not stemming — only the
	// listed forms are touched.
	Aliases map[string]string
	// IncludeBigrams additionally indexes adjacent content-word pairs as
	// single "w1 w2" terms under the same MinDocs rule — §5.4: "phrases or
	// n-grams could also be included as rows in the matrix". Stop words
	// break phrase adjacency.
	IncludeBigrams bool
}

func (o *ParseOptions) fill() {
	if o.MinDocs <= 0 {
		o.MinDocs = 2
	}
	if o.Stopwords == nil {
		o.Stopwords = defaultStopwords
	}
	if o.MinLength <= 0 {
		o.MinLength = 1
	}
}

// eachUnit calls f on every indexing unit of a raw token stream under the
// options: folded, filtered content words, plus (optionally) adjacent-pair
// bigrams. Stop words and short tokens break bigram adjacency.
func eachUnit(toks []string, opts *ParseOptions, f func(u string)) {
	prev := "" // previous content word, "" after a break
	for _, tok := range toks {
		if a, ok := opts.Aliases[tok]; ok {
			tok = a
		}
		if len([]rune(tok)) < opts.MinLength || opts.Stopwords[tok] {
			prev = ""
			continue
		}
		f(tok)
		if opts.IncludeBigrams && prev != "" {
			f(prev + " " + tok)
		}
		prev = tok
	}
}

// BuildVocabulary tokenizes every document and returns the vocabulary of
// terms that pass the parsing rule, in sorted order for determinism.
func BuildVocabulary(docs []string, opts ParseOptions) *Vocabulary {
	toks := make([][]string, len(docs))
	for j, d := range docs {
		toks[j] = Tokenize(d)
	}
	return BuildVocabularyTokens(toks, opts)
}

// BuildVocabularyTokens is BuildVocabulary over documents that are already
// tokenized (toks[j] = Tokenize(document j)), so a caller that also counts
// the documents tokenizes each once.
func BuildVocabularyTokens(toks [][]string, opts ParseOptions) *Vocabulary {
	opts.fill()
	// df[u] = (documents containing u, 1 + the last such document).
	type freq struct{ n, last int }
	df := map[string]freq{}
	for j, doc := range toks {
		eachUnit(doc, &opts, func(u string) {
			if e := df[u]; e.last != j+1 {
				df[u] = freq{e.n + 1, j + 1}
			}
		})
	}
	var terms []string
	for t, e := range df {
		if e.n >= opts.MinDocs {
			// Tokens alias the document texts; a vocabulary must not pin them.
			terms = append(terms, strings.Clone(t))
		}
	}
	sort.Strings(terms)
	return NewVocabularyFromTerms(terms, opts)
}

// NewVocabularyFromTerms rebuilds a vocabulary from a persisted term
// list — the snapshot-restore constructor. The terms must be the exact
// (sorted) list a BuildVocabulary call produced and opts the options it
// ran under, so queries parse and project identically to the original
// process; no document-frequency filtering is re-applied.
func NewVocabularyFromTerms(terms []string, opts ParseOptions) *Vocabulary {
	opts.fill()
	v := &Vocabulary{
		Terms: terms,
		Index: make(map[string]int, len(terms)),
		opts:  opts,
	}
	for i, t := range terms {
		v.Index[t] = i
	}
	return v
}

// Size returns the number of indexing terms.
func (v *Vocabulary) Size() int { return len(v.Terms) }

// CountInto writes the term counts of a token stream into dst, reusing
// its storage: ascending term indices with their frequencies (terms
// outside the vocabulary are ignored, as for stop words). This is the one
// counting routine — queries, folded documents and the term–document
// matrix are all built from it.
func (v *Vocabulary) CountInto(dst *sparse.Vec, toks []string) {
	idx, val := dst.Idx[:0], dst.Val[:0]
	eachUnit(toks, &v.opts, func(u string) {
		if i, ok := v.Index[u]; ok {
			idx = append(idx, i)
		}
	})
	slices.Sort(idx)
	n := 0
	for p, i := range idx {
		if p > 0 && i == idx[n-1] {
			val[n-1]++
			continue
		}
		idx[n] = i
		val = append(val, 1)
		n++
	}
	dst.Idx, dst.Val = idx[:n], val
}

// Count returns the dense term-frequency vector of one document under
// this vocabulary: CountInto scattered over all m terms.
func (v *Vocabulary) Count(doc string) []float64 {
	var c sparse.Vec
	v.CountInto(&c, Tokenize(doc))
	return c.Scatter(len(v.Terms))
}
