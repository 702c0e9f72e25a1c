// Command lsiquery builds an LSI index over a directory of plain-text files
// and answers queries against it — the retrieval tool a downstream user
// runs over their own documents.
//
// Usage:
//
//	lsiquery -dir ./docs -k 50 "sparse singular value decomposition"
//	lsiquery -dir ./docs            # interactive: one query per line
//
// Flags:
//
//	-dir     directory of *.txt files (required)
//	-k       number of LSI factors (default 50, clamped to the collection)
//	-scheme  weighting: raw | log-entropy (default log-entropy)
//	-top     number of documents to print (default 10)
//	-terms   also print the nearest indexed terms (automatic thesaurus)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/synonym"
	"repro/internal/text"
	"repro/internal/weight"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsiquery: ")
	dir := flag.String("dir", "", "directory of *.txt files to index")
	k := flag.Int("k", 50, "number of LSI factors")
	schemeName := flag.String("scheme", "log-entropy", "weighting: raw | log-entropy")
	top := flag.Int("top", 10, "documents to print per query")
	showTerms := flag.Bool("terms", false, "also print nearest terms for each query word")
	savePath := flag.String("save", "", "write the built index to this file and exit")
	loadPath := flag.String("load", "", "load a previously saved index instead of -dir")
	flag.Parse()

	var scheme weight.Scheme
	switch *schemeName {
	case "raw":
		scheme = weight.Raw
	case "log-entropy":
		scheme = weight.LogEntropy
	default:
		log.Fatalf("unknown scheme %q", *schemeName)
	}

	var coll *corpus.Collection
	var model *core.Model
	var docs []corpus.Document
	switch {
	case *loadPath != "":
		ix, err := index.Load(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		coll, model, docs = ix.Coll, ix.Model, ix.Coll.Docs
		fmt.Fprintf(os.Stderr, "loaded index: %d terms, %d docs, k=%d\n",
			coll.Terms(), model.NumDocs(), model.K)
	case *dir != "":
		var err error
		docs, err = loadDir(*dir)
		if err != nil {
			log.Fatal(err)
		}
		if len(docs) == 0 {
			log.Fatalf("no .txt files under %s", *dir)
		}
		ix, err := index.Build(docs, text.ParseOptions{MinDocs: 2},
			core.Config{K: *k, Scheme: scheme})
		if err != nil {
			log.Fatal(err)
		}
		coll, model = ix.Coll, ix.Model
		fmt.Fprintf(os.Stderr, "indexed %d terms over %d documents (density %.3f%%), k=%d, σ1=%.3f\n",
			coll.Terms(), coll.Size(), 100*coll.TD.Density(), model.K, model.S[0])
		if *savePath != "" {
			if err := ix.Save(*savePath); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "index saved to %s\n", *savePath)
			if flag.NArg() == 0 {
				return
			}
		}
	default:
		log.Fatal("either -dir or -load is required")
	}

	answer := func(q string) {
		counts := coll.QueryCounts(q)
		if len(counts.Idx) == 0 {
			fmt.Println("  (no query word is in the index)")
			return
		}
		// Bounded top-k selection: only the documents to be printed are
		// ranked, not the whole collection.
		for _, r := range model.RankVectorTop(model.ProjectSparse(counts, nil), *top) {
			fmt.Printf("  %+.3f  %s\n", r.Score, docs[r.Doc].ID)
		}
		if *showTerms {
			for _, w := range strings.Fields(strings.ToLower(q)) {
				if _, ok := coll.Vocab.Index[w]; !ok {
					continue
				}
				near, err := synonym.NearestTerms(model, coll.Vocab, w, 5)
				if err == nil {
					fmt.Printf("  terms near %q: %s\n", w, strings.Join(near, ", "))
				}
			}
		}
	}

	if flag.NArg() > 0 {
		answer(strings.Join(flag.Args(), " "))
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(os.Stderr, "query> ")
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q != "" {
			answer(q)
		}
		fmt.Fprint(os.Stderr, "query> ")
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// loadDir reads every .txt file directly under dir, in sorted order.
func loadDir(dir string) ([]corpus.Document, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".txt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	docs := make([]corpus.Document, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		docs = append(docs, corpus.Document{ID: name, Text: string(b)})
	}
	return docs, nil
}
