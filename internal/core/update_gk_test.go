package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dense"
	"repro/internal/eval"
	"repro/internal/sparse"
	"repro/internal/text"
	"repro/internal/weight"
)

// splitCols partitions a count matrix column-wise into [0,cut) and [cut,n).
func splitCols(a *sparse.CSR, cut int) (*sparse.CSR, *sparse.CSR) {
	d := a.Dense()
	left := sparse.NewBuilder(a.Rows, cut)
	right := sparse.NewBuilder(a.Rows, a.Cols-cut)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if d[i][j] != 0 {
				if j < cut {
					left.Add(i, j, d[i][j])
				} else {
					right.Add(i, j-cut, d[i][j])
				}
			}
		}
	}
	return left.Build(), right.Build()
}

// rankedIDs extracts the document order of a full ranking.
func rankedIDs(rk []Ranked) []int {
	out := make([]int, len(rk))
	for i, r := range rk {
		out[i] = r.Doc
	}
	return out
}

// overlapAt returns |top-z(a) ∩ top-z(b)| / z.
func overlapAt(a, b []int, z int) float64 {
	in := make(map[int]bool, z)
	for _, d := range a[:z] {
		in[d] = true
	}
	hits := 0
	for _, d := range b[:z] {
		if in[d] {
			hits++
		}
	}
	return float64(hits) / float64(z)
}

// TestUpdateDocsGKExactAtFullProjectionRank pins the core GK claim: when
// the projection rank l covers the whole update block (l ≥ rank(C)), the
// GK plan solves the same spectral problem as O'Brien's dense inner SVD,
// so singular values and retrieval scores agree to roundoff.
func TestUpdateDocsGKExactAtFullProjectionRank(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomCounts(rng, 60, 50, 0.15)
	base, rest := splitCols(a, 35)
	for _, k := range []int{4, 8} {
		ob, err := Build(base, Config{K: k, Scheme: weight.LogEntropy})
		if err != nil {
			t.Fatal(err)
		}
		gk := ob.Clone()
		if err := ob.UpdateDocs(rest); err != nil {
			t.Fatal(err)
		}
		// l = k ≥ rank(C): the bidiagonalization reproduces C exactly.
		if err := gk.UpdateDocsOpts(rest, UpdateOptions{Strategy: StrategyGK, GKRank: k}); err != nil {
			t.Fatal(err)
		}
		for i := range ob.S {
			if math.Abs(ob.S[i]-gk.S[i]) > 1e-9*(1+ob.S[0]) {
				t.Fatalf("k=%d: σ%d obrien %v gk %v", k, i, ob.S[i], gk.S[i])
			}
		}
		q := make([]float64, a.Rows)
		for i := range q {
			if rng.Float64() < 0.2 {
				q[i] = 1
			}
		}
		ro, rg := ob.Rank(q), gk.Rank(q)
		for i := range ro {
			if ro[i].Doc != rg[i].Doc || math.Abs(ro[i].Score-rg[i].Score) > 1e-8 {
				t.Fatalf("k=%d rank %d: obrien (%d,%g) vs gk (%d,%g)",
					k, i, ro[i].Doc, ro[i].Score, rg[i].Doc, rg[i].Score)
			}
		}
	}
}

// TestUpdateDocsGKTruncatedParitySynthetic bounds the truncated-GK
// strategy on the synthetic corpus: retrieval must stay close to both
// the exact O'Brien update and a full recompute, per the residual
// analysis (the discarded mass is at most the σ_{l+1}(C) tail of the
// projected block, which the topic structure keeps small).
func TestUpdateDocsGKTruncatedParitySynthetic(t *testing.T) {
	syn := corpus.GenerateSynth(corpus.SynthOptions{Seed: 9, Docs: 160, Topics: 8})
	coll := syn.Collection
	n := coll.Size()
	cut := n * 2 / 3
	idx := make([]int, cut)
	for i := range idx {
		idx[i] = i
	}
	baseColl := coll.Subset(idx)
	k := 20
	ob, err := BuildCollection(baseColl, Config{K: k, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	gk := ob.Clone()
	rest := baseColl.DocVectors(coll.Docs[cut:])
	if err := ob.UpdateDocs(rest); err != nil {
		t.Fatal(err)
	}
	if err := gk.UpdateDocsOpts(rest, UpdateOptions{Strategy: StrategyGK, GKRank: 16}); err != nil {
		t.Fatal(err)
	}
	full, err := BuildCollection(coll, Config{K: k, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	// Retrieval-metric parity over the eval harness: the synthetic corpus
	// carries relevance judgments, so the tolerance is on mean average
	// precision directly.
	levels := []float64{0.25, 0.5, 0.75}
	mapOf := func(m *Model) float64 {
		var rankings [][]int
		var rels []map[int]bool
		for _, q := range syn.Queries {
			rankings = append(rankings, rankedIDs(m.Rank(baseColl.QueryVector(q.Text))))
			rels = append(rels, eval.RelevantSet(q.Relevant))
		}
		return eval.MeanAveragePrecision(rankings, rels, levels)
	}
	mOB, mGK, mFull := mapOf(ob), mapOf(gk), mapOf(full)
	t.Logf("synth MAP: obrien %.4f gk %.4f full %.4f", mOB, mGK, mFull)
	if mGK < mOB-0.03 {
		t.Fatalf("GK MAP %.4f more than 0.03 below O'Brien %.4f", mGK, mOB)
	}
	if mGK < mFull-0.05 {
		t.Fatalf("GK MAP %.4f more than 0.05 below full recompute %.4f", mGK, mFull)
	}
}

// TestUpdateDocsGKRetrievalParityMED runs the strategies head-to-head on
// MED. The collection ships no relevance judgments, so parity is pinned
// on ranking overlap: for a pool of queries (the §3.1 example plus held
// out document texts), the truncated GK update must produce nearly the
// same top-10 as the exact O'Brien update and stay close to a full
// recompute.
func TestUpdateDocsGKRetrievalParityMED(t *testing.T) {
	if testing.Short() {
		t.Skip("MED parity is slow")
	}
	coll := corpus.MED()
	n := coll.Size()
	cut := n * 3 / 4
	idx := make([]int, cut)
	for i := range idx {
		idx[i] = i
	}
	baseColl := coll.Subset(idx)
	k := 60
	ob, err := BuildCollection(baseColl, Config{K: k, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	gk := ob.Clone()
	rest := baseColl.DocVectors(coll.Docs[cut:])
	if err := ob.UpdateDocs(rest); err != nil {
		t.Fatal(err)
	}
	if err := gk.UpdateDocsOpts(rest, UpdateOptions{Strategy: StrategyGK, GKRank: 24}); err != nil {
		t.Fatal(err)
	}
	full, err := BuildCollection(coll, Config{K: k, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{corpus.MEDQuery}
	for j := cut; j < n; j += 7 {
		queries = append(queries, coll.Docs[j].Text)
	}
	var sumOB, sumFull float64
	z := 10
	for _, q := range queries {
		qv := baseColl.QueryVector(q)
		idsGK := rankedIDs(gk.Rank(qv))
		sumOB += overlapAt(idsGK, rankedIDs(ob.Rank(qv)), z)
		sumFull += overlapAt(idsGK, rankedIDs(full.Rank(coll.QueryVector(q))), z)
	}
	nq := float64(len(queries))
	t.Logf("MED mean top-%d overlap: vs obrien %.3f, vs full %.3f", z, sumOB/nq, sumFull/nq)
	if sumOB/nq < 0.8 {
		t.Fatalf("mean top-%d overlap GK vs O'Brien %.3f < 0.8", z, sumOB/nq)
	}
	if sumFull/nq < 0.5 {
		t.Fatalf("mean top-%d overlap GK vs full recompute %.3f < 0.5", z, sumFull/nq)
	}
}

// TestPlanDocsUpdateGKDistributedBitParity mirrors the O'Brien
// distribution pin: one GK plan applied to per-shard row blocks must be
// byte-identical to the single-model GK update.
func TestPlanDocsUpdateGKDistributedBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomCounts(rng, 50, 40, 0.2)
	base, rest := splitCols(a, 28)
	single, err := Build(base, Config{K: 6, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	shardA := single.DocSubsetView(evens(28))
	shardB := single.DocSubsetView(odds(28))
	opts := UpdateOptions{Strategy: StrategyGK, GKRank: 4}
	want := single.Clone()
	if err := want.UpdateDocsOpts(rest, opts); err != nil {
		t.Fatal(err)
	}
	plan, err := single.PlanDocsUpdateOpts(rest, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotA, rotB := plan.RotateDocs(shardA.V), plan.RotateDocs(shardB.V)
	ordsOf := func(idx []int) []int64 {
		out := make([]int64, len(idx))
		for i, r := range idx {
			out[i] = int64(r)
		}
		return out
	}
	newOrds := make([]int64, plan.VNew.Rows)
	for i := range newOrds {
		newOrds[i] = int64(28 + i)
	}
	flip := CombineSignFlips(
		SignCandidates(rotA, ordsOf(evens(28))),
		SignCandidates(rotB, ordsOf(odds(28))),
		SignCandidates(plan.VNew, newOrds),
	)
	plan.ApplySigns(flip)
	dense.FlipColumns(rotA, flip)
	dense.FlipColumns(rotB, flip)
	for i, r := range evens(28) {
		requireRowEqual(t, want.V.Row(r), rotA.Row(i), "shard A row")
	}
	for i, r := range odds(28) {
		requireRowEqual(t, want.V.Row(r), rotB.Row(i), "shard B row")
	}
	for i := 0; i < plan.VNew.Rows; i++ {
		requireRowEqual(t, want.V.Row(28+i), plan.VNew.Row(i), "new row")
	}
}

func evens(n int) []int {
	var out []int
	for i := 0; i < n; i += 2 {
		out = append(out, i)
	}
	return out
}

func odds(n int) []int {
	var out []int
	for i := 1; i < n; i += 2 {
		out = append(out, i)
	}
	return out
}

func requireRowEqual(t *testing.T, want, got []float64, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("%s col %d: %v != %v", what, j, got[j], want[j])
		}
	}
}

// TestParseUpdateStrategy pins the flag spellings.
func TestParseUpdateStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want UpdateStrategy
		ok   bool
	}{
		{"", StrategyOBrien, true},
		{"obrien", StrategyOBrien, true},
		{"gk", StrategyGK, true},
		{"fast", StrategyOBrien, false},
	} {
		got, err := ParseUpdateStrategy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseUpdateStrategy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if StrategyGK.String() != "gk" || StrategyOBrien.String() != "obrien" {
		t.Fatal("String() spelling drifted from flag values")
	}
}

// BenchmarkCompactionStrategy times one compaction-sized document update
// — PlanDocsUpdateOpts, the rotation of the existing rows and Apply, the
// work a coordinated compaction pays — under O'Brien's dense inner SVD
// and under the Golub–Kahan projection at the default rank, at two
// corpus sizes. O'Brien's inner problem is k×(k+p), GK's k×(k+l) with
// l = DefaultGKRank, so the gap widens with the pending block p; the
// price is reported beside the time as overlap@10, the mean share of the
// O'Brien-updated model's top 10 that the strategy's model returns
// (1 for O'Brien itself) — the Vecharynski–Saad trade-off.
func BenchmarkCompactionStrategy(b *testing.B) {
	for _, size := range []struct{ docs, pending int }{{3000, 300}, {12000, 1200}} {
		synth := corpus.GenerateSynth(corpus.SynthOptions{
			Seed: 1, Topics: 64, ConceptsPerTopic: 24, Docs: size.docs + size.pending,
			DocLen: 60, NoiseWords: 200, NoiseZipf: true,
		})
		coll := corpus.New(synth.Docs[:size.docs], text.ParseOptions{MinDocs: 2})
		model, err := BuildCollection(coll, Config{K: 64, Scheme: weight.LogEntropy})
		if err != nil {
			b.Fatal(err)
		}
		pending := coll.DocVectors(synth.Docs[size.docs:])
		update := func(st UpdateStrategy) *Model {
			plan, err := model.PlanDocsUpdateOpts(pending, UpdateOptions{Strategy: st})
			if err != nil {
				b.Fatal(err)
			}
			return plan.Apply(model, plan.RotateDocs(model.V).AugmentRows(plan.VNew))
		}
		queries := make([][]float64, len(synth.Queries))
		for i, q := range synth.Queries {
			queries[i] = coll.QueryVector(q.Text)
		}
		exact := update(StrategyOBrien)
		want := make([][]int, len(queries))
		for i, q := range queries {
			want[i] = rankedIDs(exact.RankTop(q, 10))
		}
		for _, st := range []UpdateStrategy{StrategyOBrien, StrategyGK} {
			b.Run(fmt.Sprintf("docs=%d+%d/%v", size.docs, size.pending, st), func(b *testing.B) {
				var updated *Model
				for i := 0; i < b.N; i++ {
					updated = update(st)
				}
				b.StopTimer()
				var overlap float64
				for i, q := range queries {
					overlap += overlapAt(want[i], rankedIDs(updated.RankTop(q, 10)), 10)
				}
				b.ReportMetric(overlap/float64(len(queries)), "overlap@10")
			})
		}
	}
}
