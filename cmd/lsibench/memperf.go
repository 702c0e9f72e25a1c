// Memory/startup performance harness for the int8 screening tier and
// the mmap snapshot format: measures resident bytes per document for
// each precision tier of the scoring cache (float64 / float32+residual
// / int8+scale+residual), single-query screening throughput per tier,
// and cold-start time building a tier from text (parse + SVD + caches)
// versus restoring it from a snapshot container at several corpus
// sizes — the numbers behind the "≥3× bytes/doc, O(1) startup" claims.
package main

// benchmark harness: wall-clock timing is the product.
//lsilint:file-ignore walltime

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/rank"
	"repro/internal/shard"
	"repro/internal/text"
)

// tierBytes is one precision tier's per-document memory cost, measured
// from the arrays an engine actually holds (not a formula).
type tierBytes struct {
	Tier string `json:"tier"`
	// BytesPerDoc counts the scoring arrays scanned during screening for
	// one document row: coordinates plus any per-row certificates
	// (residual bound, quantization scale).
	BytesPerDoc    int     `json:"bytes_per_doc"`
	TotalBytes     int64   `json:"total_bytes"`
	NsPerOp        int64   `json:"ns_per_op"`
	ReductionVsF64 float64 `json:"reduction_vs_f64"`
}

// startupPoint is one corpus size's build-vs-restore comparison.
type startupPoint struct {
	Docs  int `json:"docs"`
	Terms int `json:"terms"`
	K     int `json:"k"`
	// BuildNs: corpus parse + weighting + truncated SVD + engine caches —
	// what a cold lsiserver -dir start costs.
	BuildNs int64 `json:"build_ns"`
	// SaveNs: SaveSnapshot (includes the final coordinated compaction).
	SaveNs int64 `json:"save_ns"`
	// RestoreNs: shard.Restore from the container — what a
	// lsiserver -load-model start costs.
	RestoreNs     int64   `json:"restore_ns"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	BuildOverLoad float64 `json:"build_over_load"`
}

type memPerfReport struct {
	GeneratedAt string         `json:"generated_at"`
	NumCPU      int            `json:"num_cpu"`
	ScreenDocs  int            `json:"screen_docs"`
	ScreenDim   int            `json:"screen_dim"`
	Tiers       []tierBytes    `json:"tiers"`
	Startup     []startupPoint `json:"startup"`
}

func runMemPerf(out string, seed int64) error {
	const (
		screenDocs = 50000
		screenDim  = 100
		topK       = 10
	)
	report := memPerfReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		ScreenDocs:  screenDocs,
		ScreenDim:   screenDim,
	}

	// --- Tier memory + throughput: one document matrix, three engines.
	m := syntheticRankModel(screenDocs, screenDim, seed)
	rng := rand.New(rand.NewSource(seed + 3))
	q := make([]float64, screenDim)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	exact := rank.NewEngineExact(m.V)
	f32 := rank.NewEngineF32(m.V)
	q8 := rank.NewEngine(m.V)

	bench := func(e *rank.Engine) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := e.TopK(q, topK); len(r) != topK {
					b.Fatal("bad rank")
				}
			}
		}).NsPerOp()
	}
	// Parity gate: a throughput number from a wrong result is worthless.
	want := exact.TopK(q, topK)
	for _, e := range []*rank.Engine{f32, q8} {
		got := e.TopK(q, topK)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("memperf: tier diverges from exact at item %d", i)
			}
		}
	}

	// Per-row screening bytes, measured from the engines' own arrays via
	// the serialization seam. The float64 tier scans Rows×Cols×8 bytes;
	// the float32 tier adds one residual certificate per row; the int8
	// tier adds a scale and a residual per row.
	parts := q8.Parts()
	per64 := 8 * parts.Cols
	per32 := 4*parts.Cols + 8
	per8 := parts.Cols + 16
	if len(parts.Mirror) != parts.Rows*parts.Cols || len(parts.Q8) != parts.Rows*parts.Cols ||
		len(parts.Eps) != parts.Rows || len(parts.Scale) != parts.Rows || len(parts.Eps8) != parts.Rows {
		return fmt.Errorf("memperf: engine arrays do not match the claimed layout")
	}
	rows := int64(parts.Rows)
	report.Tiers = []tierBytes{
		{Tier: "float64", BytesPerDoc: per64, TotalBytes: rows * int64(per64), NsPerOp: bench(exact), ReductionVsF64: 1},
		{Tier: "float32+eps", BytesPerDoc: per32, TotalBytes: rows * int64(per32), NsPerOp: bench(f32),
			ReductionVsF64: float64(per64) / float64(per32)},
		{Tier: "int8+scale+eps", BytesPerDoc: per8, TotalBytes: rows * int64(per8), NsPerOp: bench(q8),
			ReductionVsF64: float64(per64) / float64(per8)},
	}

	// --- Build vs restore startup at increasing corpus sizes. The build
	// column grows with the corpus (SVD-bound); the restore column is
	// decoding the document list, re-normalizing V and attaching mmap
	// views — no parse, no factorization, no cache rebuild.
	dir, err := os.MkdirTemp("", "memperf")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, docs := range []int{400, 1600} {
		pt, err := benchStartup(dir, docs, seed)
		if err != nil {
			return err
		}
		report.Startup = append(report.Startup, pt)
		fmt.Fprintf(os.Stderr, "memperf: %d docs: build %.1fms, save %.1fms, restore %.1fms (%.1fx), %d snapshot bytes\n",
			pt.Docs, float64(pt.BuildNs)/1e6, float64(pt.SaveNs)/1e6, float64(pt.RestoreNs)/1e6,
			pt.BuildOverLoad, pt.SnapshotBytes)
	}
	for _, t := range report.Tiers {
		fmt.Fprintf(os.Stderr, "memperf: tier %-14s %5d B/doc (%.2fx vs float64), top-%d in %d ns/op\n",
			t.Tier, t.BytesPerDoc, t.ReductionVsF64, topK, t.NsPerOp)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchStartup builds a serving tier from synthetic text, saves it, and
// times the restore. Build and restore each run once — these are
// one-shot costs, and at these sizes the SVD dominates far beyond
// timer noise.
func benchStartup(dir string, docs int, seed int64) (startupPoint, error) {
	const k = 24
	synthDocs := syntheticTextCorpus(docs, seed)
	path := filepath.Join(dir, fmt.Sprintf("tier-%d.lsnp", docs))

	t0 := time.Now()
	coll, model, err := buildTier(synthDocs, k)
	if err != nil {
		return startupPoint{}, err
	}
	buildNs := time.Since(t0).Nanoseconds()
	r, err := shard.New(coll, model, shard.Config{Shards: 2, Engine: engine.Config{BatchTick: time.Millisecond}})
	if err != nil {
		return startupPoint{}, err
	}
	t1 := time.Now()
	if err := r.SaveSnapshot(path); err != nil {
		return startupPoint{}, err
	}
	saveNs := time.Since(t1).Nanoseconds()

	t2 := time.Now()
	r2, f, err := shard.Restore(path, shard.Config{Engine: engine.Config{BatchTick: time.Millisecond}}, false)
	if err != nil {
		return startupPoint{}, err
	}
	restoreNs := time.Since(t2).Nanoseconds()

	// Parity gate before reporting: restored results must match the live
	// tier bit-for-bit.
	raw := coll.QueryVector(synthDocs[0].Text)
	h1, _ := r.Search(raw, 10)
	h2, _ := r2.Search(raw, 10)
	if len(h1) != len(h2) {
		return startupPoint{}, fmt.Errorf("memperf: restore changed result count")
	}
	for i := range h1 {
		if h1[i].ID != h2[i].ID || h1[i].Score != h2[i].Score { //lsilint:ignore floatcmp — parity gate needs bit equality
			return startupPoint{}, fmt.Errorf("memperf: restore changed results at %d docs", docs)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return startupPoint{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.Close(ctx)
	_ = r2.Close(ctx)
	f.Close()
	return startupPoint{
		Docs: docs, Terms: coll.Terms(), K: model.K,
		BuildNs: buildNs, SaveNs: saveNs, RestoreNs: restoreNs,
		SnapshotBytes: st.Size(),
		BuildOverLoad: float64(buildNs) / float64(restoreNs),
	}, nil
}

func buildTier(docs []corpus.Document, k int) (*corpus.Collection, *core.Model, error) {
	coll := corpus.New(docs, text.ParseOptions{MinDocs: 2})
	model, err := core.BuildCollection(coll, core.Config{K: k, Method: core.MethodDense})
	if err != nil {
		return nil, nil, err
	}
	return coll, model, nil
}

// syntheticTextCorpus emits raw text documents (topic words + shared
// vocabulary) so the build column includes real parsing and weighting.
func syntheticTextCorpus(n int, seed int64) []corpus.Document {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]corpus.Document, n)
	for i := 0; i < n; i++ {
		topic := i % 8
		var b []byte
		for w := 0; w < 60; w++ {
			b = append(b, fmt.Sprintf("t%dw%d common%d ", topic, rng.Intn(40), rng.Intn(120))...)
		}
		docs[i] = corpus.Document{ID: fmt.Sprintf("doc-%05d", i), Text: string(b)}
	}
	return docs
}
