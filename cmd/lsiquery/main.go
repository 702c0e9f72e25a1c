// Command lsiquery builds an LSI index over a directory of plain-text files
// and answers queries against it — the retrieval tool a downstream user
// runs over their own documents.
//
// Usage:
//
//	lsiquery -dir ./docs -k 50 "sparse singular value decomposition"
//	lsiquery -dir ./docs            # interactive: one query per line
//
//	lsiquery -dir ./docs -save docs.lsnp
//	lsiquery -load docs.lsnp "query words"
//
// Flags:
//
//	-dir     directory of *.txt files (required unless -load is given)
//	-k       number of LSI factors (default 50, clamped to the collection)
//	-scheme  weighting: raw | log-entropy (default log-entropy)
//	-top     number of documents to print (default 10)
//	-terms   also print the nearest indexed terms (automatic thesaurus)
//	-save    write the built database to this file; exit unless a query
//	         is given. The file is a 1-shard model snapshot, so
//	         lsiserver -load-model serves it
//	-load    query a saved database instead of building from -dir: a
//	         -save file, or what lsiserver -save-model wrote at any shard
//	         count (live documents only, merged in submission order)
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
	"repro/internal/shard"
	"repro/internal/snapfile"
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
	savePath := flag.String("save", "", "write the built database (a 1-shard model snapshot) to this file and exit")
	loadPath := flag.String("load", "", "query a saved database or lsiserver -save-model file instead of -dir")
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
	switch {
	case *loadPath != "":
		// Every section's CRC is checked; the factors stay in the file's
		// mapping for the life of the process.
		f, err := snapfile.Open(*loadPath)
		if err == nil {
			err = f.VerifyAll()
		}
		if err == nil {
			coll, model, err = shard.ReadDatabase(f)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded database: %d terms, %d docs, k=%d\n",
			coll.Terms(), model.NumDocs(), model.K)
	case *dir != "":
		docs, err := loadDir(*dir)
		if err != nil {
			log.Fatal(err)
		}
		if len(docs) == 0 {
			log.Fatalf("no .txt files under %s", *dir)
		}
		coll = corpus.New(docs, text.ParseOptions{MinDocs: 2, Stopwords: text.Stopwords()})
		if coll.Terms() == 0 {
			log.Fatalf("no indexable terms in %d documents", len(docs))
		}
		model, err = core.BuildCollection(coll, core.Config{K: *k, Scheme: scheme})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "indexed %d terms over %d documents (density %.3f%%), k=%d, σ1=%.3f\n",
			coll.Terms(), coll.Size(), 100*coll.TD.Density(), model.K, model.S[0])
		if *savePath != "" {
			sections, err := shard.DatabaseSections(coll, model)
			if err == nil {
				err = snapfile.Write(*savePath, sections)
			}
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "database saved to %s\n", *savePath)
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
			fmt.Printf("  %+.3f  %s\n", r.Score, coll.Docs[r.Doc].ID)
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
