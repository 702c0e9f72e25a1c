// benchmark harness: wall-clock timing is the product.
//lsilint:file-ignore walltime

package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/flops"
	"repro/internal/lanczos"
	"repro/internal/rank"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapfile"
	"repro/internal/weight"
)

// layerValues collects the per-layer metrics that are single
// measurements rather than series.
type layerValues map[string]float64

// probeBase is the collection and model of the traced set-up, kept for
// the read-only probes; the model is a SharedClone the serving tier
// never sees, so probing it cannot disturb what is served.
type probeBase struct {
	coll  *corpus.Collection
	model *core.Model
	eng   *rank.Engine // screening engine with its IVF index, as served
}

// bestOf returns the shortest of n timings of f — the repo's best-of-N
// convention for one-shot stages.
func bestOf(n int, f func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

func since(start time.Time) float64 { return time.Since(start).Seconds() }

// stagedSetup is buildStack with a clock around every public entry point
// on the way. The weighting and Lanczos stages are the calls core.Build
// makes, made once more from outside, so core.build_self_s is what Build
// adds around them.
func stagedSetup(docs []corpus.Document, sc scale, lv layerValues) (*stack, *probeBase, error) {
	start := time.Now()
	coll := corpus.New(docs, parseOpts)
	lv["corpus.new_s"] = since(start)

	cfg := modelConfig(sc)
	start = time.Now()
	weight.GlobalWeights(coll.TD, cfg.Scheme.Global)
	weighted := weight.Apply(coll.TD, cfg.Scheme)
	lv["weight.apply_s"] = since(start)

	k := sc.k
	if mn := min(coll.TD.Rows, coll.TD.Cols); k > mn {
		k = mn
	}
	start = time.Now()
	res, err := lanczos.TruncatedSVD(lanczos.OpCSR(weighted), lanczos.Options{K: k, Seed: cfg.Seed})
	if err != nil {
		// core.Build's one retry with a longer recurrence.
		res, err = lanczos.TruncatedSVD(lanczos.OpCSR(weighted), lanczos.Options{
			K: k, Seed: cfg.Seed, MaxSteps: min(coll.TD.Rows, coll.TD.Cols, 8*k+64)})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lanczos stage: %w", err)
	}
	svdS := since(start)
	lv["lanczos.svd_s"] = svdS
	lv["lanczos.steps"] = float64(res.Steps)
	lv["lanczos.matvecs"] = float64(res.MatVecs)
	lv["lanczos.model_gflops"] = flops.RecomputingSVD(flops.Params{
		M: coll.Terms(), N: coll.Size(), K: k, I: res.Steps, Trp: k, NNZA: coll.TD.NNZ(),
	}) / svdS / 1e9

	start = time.Now()
	model, err := core.BuildCollection(coll, cfg)
	if err != nil {
		return nil, nil, err
	}
	lv["core.build_self_s"] = since(start) - svdS - lv["weight.apply_s"]

	pb := &probeBase{coll: coll, model: model.SharedClone()}
	start = time.Now()
	eng := rank.NewEngine(pb.model.V)
	lv["rank.engine_build_s"] = since(start)
	start = time.Now()
	pb.eng = eng.BuildIVF(rank.IVFConfig{})
	lv["rank.ivf_build_s"] = since(start)
	lv["rank.bytes_per_doc"] = engineBytes(pb.eng.Parts()) / float64(coll.Size())

	start = time.Now()
	e, err := engine.New(coll, pb.model, engineConfig())
	if err != nil {
		return nil, nil, err
	}
	lv["engine.new_s"] = since(start)
	ctx, cancel := drainCtx()
	defer cancel()
	if err := e.Close(ctx); err != nil {
		return nil, nil, err
	}

	start = time.Now()
	srv, err := server.NewWithOptions(coll, model, serverOptions())
	if err != nil {
		return nil, nil, err
	}
	lv["shard.new_s"] = since(start)
	st, err := serve(srv)
	return st, pb, err
}

// engineBytes sums the arrays a scoring cache holds: the float64 rows
// plus every derived tier Parts exposes.
func engineBytes(p *rank.Parts) float64 {
	n := p.Rows*p.Cols*8 + len(p.Mirror)*4 + len(p.Eps)*8 + len(p.Q8) + len(p.Scale)*8 + len(p.Eps8)*8
	if p.IVF != nil {
		n += len(p.IVF.Cents)*8 + len(p.IVF.Radius)*8 + len(p.IVF.MemberCounts)*4 + len(p.IVF.Members)*4
	}
	return float64(n)
}

// tierBytes is the width of one coordinate in the tier stage 1 scans.
func tierBytes(e *rank.Engine) float64 {
	switch {
	case e.Int8Screening():
		return 1
	case e.Screening():
		return 4
	}
	return 8
}

// pureProbes times the write-path and scale-out entry points on the
// probe model: nothing here touches the served stack.
func pureProbes(in *inputs, pb *probeBase, tr *tracer, lv layerValues) error {
	docs := in.probeSpare()[:in.sc.probeDocs]
	p := float64(len(docs))
	params := flops.Params{M: pb.coll.Terms(), N: pb.coll.Size(), K: pb.model.K, P: len(docs)}

	d := pb.coll.DocVectors(docs)
	dv, _ := bestOf(3, func() error { pb.coll.DocVectors(docs); return nil })
	lv["corpus.doc_vectors_us_per_doc"] = us(dv) / p
	params.NNZD = d.NNZ()

	var folded *core.Model
	fold, _ := bestOf(3, func() error {
		folded = pb.model.SharedClone()
		folded.FoldInDocs(d)
		return nil
	})
	lv["core.fold_in_us_per_doc"] = us(fold) / p
	lv["core.fold_in_model_gflops"] = flops.FoldingInDocuments(params) / fold.Seconds() / 1e9

	plan, err := bestOf(3, func() error {
		_, err := pb.model.PlanDocsUpdateOpts(d, core.UpdateOptions{})
		return err
	})
	if err != nil {
		return fmt.Errorf("plan update probe: %w", err)
	}
	lv["core.plan_update_ms"] = us(plan) / 1e3
	// The inner problem is the dense SVD of the k×(k+p) matrix F; the
	// flop model's Lanczos terms are evaluated at its full length.
	params.I, params.Trp = pb.model.K+len(docs), pb.model.K
	lv["core.plan_update_model_gflops"] = flops.SVDUpdatingDocuments(params) / plan.Seconds() / 1e9

	n := pb.model.NumDocs()
	more := folded.V.Slice(n, n+len(docs), 0, folded.V.Cols)
	ext, _ := bestOf(3, func() error { pb.eng.Extend(more); return nil })
	lv["rank.extend_us_per_doc"] = us(ext) / p

	// Allocation per QueryVector call, from the allocator's own counter.
	qs := in.queries(200, streamProbe, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		pb.coll.QueryVector(q)
	}
	runtime.ReadMemStats(&after)
	lv["corpus.query_vector_alloc_kb"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(qs)) / 1024

	// The same model behind two shards: the shards-vs-spans question.
	r2, err := shard.New(pb.coll, pb.model, shard.Config{Shards: 2, Engine: engineConfig()})
	if err != nil {
		return fmt.Errorf("2-shard probe: %w", err)
	}
	for _, q := range in.queries(in.sc.probeQueries, streamProbe, 2) {
		raw := pb.coll.QueryVector(q)
		start := time.Now()
		r2.Search(raw, topN)
		tr.observe("shard.search_s2_us", us(time.Since(start)))
	}
	ctx, cancel := drainCtx()
	defer cancel()
	return r2.Close(ctx)
}

// restoreProbes times the stages of shard.Restore around their public
// entry points, then the whole, on the snapshot at path.
func restoreProbes(path string, live *shard.Router, lv layerValues) error {
	open, err := bestOf(3, func() error {
		f, err := snapfile.Open(path)
		if err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	lv["snapfile.open_ms"] = us(open) / 1e3

	f, err := snapfile.Open(path)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := f.VerifyAll(); err != nil {
		f.Close()
		return err
	}
	lv["snapfile.verify_ms"] = since(start) * 1e3
	fromSnap, err := bestOf(3, func() error {
		_, err := core.ModelFromSnapshot(f, "s0/")
		return err
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lv["core.model_from_snapshot_ms"] = us(fromSnap) / 1e3

	// The two O(documents) stages are timed once: each costs about as much
	// as a measured block.
	snap := live.ShardSnapshot(0)
	start = time.Now()
	corpus.Restore(snap.Docs, live.Collection().Vocab, parseOpts)
	parse := time.Since(start)
	lv["corpus.restore_s"] = parse.Seconds()

	start = time.Now()
	r, f, err := shard.Restore(path, shard.Config{Engine: engineConfig()}, false)
	if err != nil {
		return err
	}
	whole := time.Since(start)
	ctx, cancel := drainCtx()
	defer cancel()
	err = r.Close(ctx)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lv["shard.restore_self_s"] = (whole - open - fromSnap - parse).Seconds()

	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	lv["snapfile.bytes_per_doc"] = float64(info.Size()) / float64(len(snap.Docs))
	return nil
}

// writeProbes times Router.Submit, Router.Delete, the orthogonality
// measure the compaction monitor would evaluate, and one coordinated
// compaction, on the live router. It runs last: it changes what is
// served.
func writeProbes(in *inputs, r *shard.Router, tr *tracer, lv layerValues) error {
	docs := in.probeSpare()[in.sc.probeDocs:]
	ctx := context.Background()
	for _, d := range docs {
		start := time.Now()
		if _, _, err := r.Submit(ctx, d); err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
		tr.observe("shard.submit_ms", us(time.Since(start))/1e3)
	}
	for _, d := range docs[:len(docs)/2] {
		start := time.Now()
		if _, err := r.Delete(ctx, d.ID); err != nil {
			return fmt.Errorf("delete probe: %w", err)
		}
		tr.observe("shard.delete_ms", us(time.Since(start))/1e3)
	}
	orth, _ := bestOf(3, func() error { r.Orthogonality(); return nil })
	lv["shard.orthogonality_ms"] = us(orth) / 1e3
	start := time.Now()
	if err := r.Compact(); err != nil {
		return fmt.Errorf("compact probe: %w", err)
	}
	tr.observe("shard.compact_ms", since(start)*1e3)
	return nil
}
