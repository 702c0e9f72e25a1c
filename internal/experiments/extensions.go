package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/rank"
	"repro/internal/text"
	"repro/internal/weight"
)

func init() {
	register("trecqueries", "LSI advantage shrinks for rich TREC-style queries (§5.3)", runTRECQueries)
	register("pooling", "pooled relevance judgments bias against unpooled systems (§5.1 fn 1)", runPooling)
	register("phrases", "phrase (bigram) descriptors as extra matrix rows (§5.4)", runPhrases)
	register("neighbors", "near-neighbor search in k-space: pruning vs recall (§5.6)", runNeighbors)
	register("anim3d", "k=3 coordinates before/after updating — the §4.5 animation keyframes", runAnim3D)
}

// runTRECQueries reproduces the §5.3 observation: "the fact that the TREC
// queries are quite rich means that smaller advantages would be expected
// for LSI" — long, detailed queries (TREC averaged >50 words) leave less
// room for latent expansion than the 1–2 word interactive queries.
func runTRECQueries(seed int64) (*Result, error) {
	r := &Result{ID: "trecqueries", Title: "LSI advantage vs query richness",
		Paper: "TREC's >50-word queries gave LSI 16% (retrieval), below the ~30% seen with short queries"}
	r.addf("%-14s %8s %8s %10s", "query length", "LSI", "keyword", "advantage")
	var advShort, advLong float64
	for _, qlen := range []int{2, 8, 40} {
		s := corpus.GenerateSynth(corpus.SynthOptions{
			Seed: seed + int64(qlen)*13, Topics: 10, Docs: 300, DocLen: 40,
			SynonymsPerConcept: 6, DocVariantLoyalty: 1.0,
			PolysemyFrac: 0.2, NoiseFrac: 0.35,
			QueriesPerTopic: 3, QueryLen: qlen,
		})
		lsi, err := apLSI(s, 20, weight.LogEntropy, seed)
		if err != nil {
			return nil, err
		}
		kw := apVSM(s, weight.LogEntropy)
		adv := eval.Improvement(lsi, kw)
		r.addf("%-14d %8.3f %8.3f %9.1f%%", qlen, lsi, kw, adv)
		r.metric(fmt.Sprintf("advantage_pct_qlen%d", qlen), adv)
		if qlen == 2 {
			advShort = adv
		}
		if qlen == 40 {
			advLong = adv
		}
	}
	r.metric("short_minus_long_pct", advShort-advLong)
	return r, nil
}

// runPooling demonstrates the evaluation hazard of §5.1's footnote: a
// system whose runs were not pooled is undervalued because its unique
// relevant documents carry no judgments.
func runPooling(seed int64) (*Result, error) {
	r := &Result{ID: "pooling", Title: "Pooled judgments vs exhaustive judgments",
		Paper: "\"most of the top-ranked documents for new systems will hopefully be contained in the pool\" — when they are not, the new system is undervalued"}
	s := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: seed + 41, Topics: 10, Docs: 300, DocLen: 40,
		SynonymsPerConcept: 6, DocVariantLoyalty: 1.0, QueriesPerTopic: 3, QueryLen: 4,
	})
	// The pooled system is keyword matching; LSI is the "new system".
	kw := apVSM(s, weight.LogEntropy)
	lsiTrue, err := apLSI(s, 20, weight.LogEntropy, seed)
	if err != nil {
		return nil, err
	}
	m, err := core.BuildCollection(s.Collection, core.Config{K: 20, Scheme: weight.LogEntropy, Seed: seed})
	if err != nil {
		return nil, err
	}
	kwModel := buildVSM(s)
	var lsiPooledSum float64
	for _, q := range s.Queries {
		kwRanking := eval.RankingFromScores(kwModel.Scores(s.QueryVector(q.Text)))
		ranked := m.Rank(s.QueryVector(q.Text))
		lsiRanking := make([]int, len(ranked))
		for i, x := range ranked {
			lsiRanking[i] = x.Doc
		}
		// Pool only the keyword system's top 20.
		pool := eval.Pool([][]int{kwRanking}, 20)
		pj := eval.PooledJudgments(eval.RelevantSet(q.Relevant), pool)
		lsiPooledSum += eval.AveragePrecisionAtLevels(lsiRanking, pj, nil)
	}
	lsiPooled := lsiPooledSum / float64(len(s.Queries))
	r.addf("keyword (pooled system) AP:        %.3f", kw)
	r.addf("LSI under exhaustive judgments:    %.3f", lsiTrue)
	r.addf("LSI under keyword-only pooling:    %.3f", lsiPooled)
	r.metric("lsi_true", lsiTrue)
	r.metric("lsi_pooled", lsiPooled)
	r.metric("pooling_penalty", lsiTrue-lsiPooled)
	return r, nil
}

// runPhrases measures adding bigram descriptors as extra rows — the §5.4
// generalization "phrases or n-grams could also be included as rows in the
// matrix".
func runPhrases(seed int64) (*Result, error) {
	r := &Result{ID: "phrases", Title: "Unigram vs unigram+bigram descriptor rows",
		Paper: "the LSI method can be applied to any descriptor–object matrix"}
	gen := func(bigrams bool) (*corpus.Synth, *corpus.Collection) {
		s := corpus.GenerateSynth(corpus.SynthOptions{
			Seed: seed + 53, Topics: 8, Docs: 240, DocLen: 40,
			SynonymsPerConcept: 4, DocVariantLoyalty: 1.0, QueriesPerTopic: 3,
		})
		if !bigrams {
			return s, s.Collection
		}
		coll := corpus.New(s.Docs, text.ParseOptions{MinDocs: 2, IncludeBigrams: true})
		return s, coll
	}
	for _, bigrams := range []bool{false, true} {
		s, coll := gen(bigrams)
		m, err := core.BuildCollection(coll, core.Config{K: 16, Scheme: weight.LogEntropy, Seed: seed})
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, q := range s.Queries {
			ranked := m.Rank(coll.QueryVector(q.Text))
			ranking := make([]int, len(ranked))
			for i, x := range ranked {
				ranking[i] = x.Doc
			}
			sum += eval.AveragePrecisionAtLevels(ranking, eval.RelevantSet(q.Relevant), nil)
		}
		ap := sum / float64(len(s.Queries))
		label := "unigrams"
		key := "ap_unigram"
		if bigrams {
			label = "unigrams+bigrams"
			key = "ap_bigram"
		}
		r.addf("%-18s rows=%5d  AP=%.3f", label, coll.Terms(), ap)
		r.metric(key, ap)
		r.metric(key+"_rows", float64(coll.Terms()))
	}
	return r, nil
}

// runNeighbors measures the §5.6 open issue: cosine evaluations vs recall
// for cluster-pruned near-neighbor search over document vectors, on the
// index the serving path uses (rank's IVF) with an explicit probe budget.
func runNeighbors(seed int64) (*Result, error) {
	r := &Result{ID: "neighbors", Title: "Cluster-pruned nearest-neighbor search over k-space",
		Paper: "efficiently comparing queries to documents — finding near neighbors in high-dimension spaces (§5.6)"}
	s := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: seed + 61, Topics: 16, Docs: 1600, DocLen: 40, QueriesPerTopic: 1,
	})
	m, err := core.BuildCollection(s.Collection, core.Config{K: 32, Scheme: weight.LogEntropy, Seed: seed})
	if err != nil {
		return nil, err
	}
	ix := rank.NewEngine(m.V).BuildIVF(rank.IVFConfig{MinRows: 1, Seed: uint64(seed)})
	exact := rank.NewEngineExact(m.V)
	clusters, _, _ := ix.IVF()
	r.addf("documents: %d, clusters: %d", m.NumDocs(), clusters)
	r.addf("%8s %10s %12s", "probes", "recall@10", "cos-evals")
	for _, probes := range []int{1, 2, 4, 8} {
		var recallSum float64
		var evalSum int
		for _, q := range s.Queries {
			qhat := m.ProjectQuery(s.QueryVector(q.Text))
			approx, st := ix.TopKProbe(qhat, 10, probes)
			_, recall := eval.PrecisionRecall(itemDocs(approx), eval.RelevantSet(itemDocs(exact.TopK(qhat, 10))), 10)
			recallSum += recall
			evalSum += st.ScannedRows
		}
		recall := recallSum / float64(len(s.Queries))
		evals := evalSum / len(s.Queries)
		r.addf("%8d %10.3f %12d", probes, recall, evals)
		r.metric(fmt.Sprintf("recall_probes%d", probes), recall)
		r.metric(fmt.Sprintf("evals_probes%d", probes), float64(evals))
	}
	r.metric("docs", float64(m.NumDocs()))
	return r, nil
}

func itemDocs(items []rank.Item) []int {
	docs := make([]int, len(items))
	for i, it := range items {
		docs[i] = it.Doc
	}
	return docs
}

// runAnim3D emits the §4.5 animation's keyframes: the k=3 positions of
// every term and document before the update, after folding-in, and after
// SVD-updating — "all terms and documents are shown moving to the
// positions they would assume if SVD-updating is used."
func runAnim3D(seed int64) (*Result, error) {
	c := corpus.MED()
	folded, err := core.BuildCollection(c, core.Config{K: 3, Method: core.MethodDense})
	if err != nil {
		return nil, err
	}
	updated, err := core.BuildCollection(c, core.Config{K: 3, Method: core.MethodDense})
	if err != nil {
		return nil, err
	}
	d := c.DocVectors(corpus.MEDUpdateTopics)
	folded.FoldInDocs(d)
	if err := updated.UpdateDocs(d); err != nil {
		return nil, err
	}
	r := &Result{ID: "anim3d", Title: "3-D keyframes: folded-in vs SVD-updated positions",
		Paper: "the video shows M15/M16 folded in, then all terms and documents moving to their SVD-updated positions"}
	fc, uc := folded.DocCoords(), updated.DocCoords()
	ids := append([]corpus.Document{}, c.Docs...)
	ids = append(ids, corpus.MEDUpdateTopics...)
	r.addf("%-5s %28s %28s", "doc", "folded (x,y,z)", "updated (x,y,z)")
	var totalMove float64
	for j, doc := range ids {
		r.addf("%-5s (%+.3f, %+.3f, %+.3f)   (%+.3f, %+.3f, %+.3f)",
			doc.ID, fc.At(j, 0), fc.At(j, 1), fc.At(j, 2),
			uc.At(j, 0), uc.At(j, 1), uc.At(j, 2))
		for f := 0; f < 3; f++ {
			totalMove += abs(uc.At(j, f) - fc.At(j, f))
		}
	}
	r.metric("total_doc_movement", totalMove)
	r.metric("folded_orthogonality", folded.DocOrthogonality())
	r.metric("updated_orthogonality", updated.DocOrthogonality())
	return r, nil
}
