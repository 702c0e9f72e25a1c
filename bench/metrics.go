package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: &bound}
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// endToEnd are the metrics a user of the served index would see. Every
// workload reports all of them.
var endToEnd = []metricDef{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("qps", "1/s", "higher", 0.25),
	e2e("p50_ms", "ms", "lower", 0.25),
	e2e("tail_ms", "ms", "lower", 0.25),
	e2e("alloc_kb_per_op", "KB", "lower", 0.10),
	e2e("rss_mb", "MB", "lower", 0.10),
	e2e("restore_s", "s", "lower", 0.25),
	e2e("snapshot_mb", "MB", "lower", 0.01),
	e2e("quality", "ratio", "higher", 0.03),
}

// perLayer are the single-layer metrics of the traced run, grouped by
// the module they time or count.
var perLayer = []metricDef{
	layer("http.overhead_us", "us", "lower"),
	layer("http.failed_ops", "count", "lower"),

	layer("server.search_us", "us", "lower"),
	layer("server.search_self_us", "us", "lower"),
	layer("server.batch_us_per_q", "us", "lower"),

	layer("text.tokenize_us", "us", "lower"),
	layer("corpus.query_vector_us", "us", "lower"),
	layer("corpus.query_vector_alloc_kb", "KB", "lower"),
	layer("corpus.doc_vectors_us_per_doc", "us", "lower"),
	layer("corpus.new_s", "s", "lower"),
	layer("corpus.restore_s", "s", "lower"),

	layer("weight.apply_s", "s", "lower"),
	layer("lanczos.svd_s", "s", "lower"),
	layer("lanczos.steps", "count", "lower"),
	layer("lanczos.matvecs", "count", "lower"),
	layer("lanczos.model_gflops", "Gflop/s", "higher"),

	layer("core.build_self_s", "s", "lower"),
	layer("core.project_us", "us", "lower"),
	layer("core.project_useful_ratio", "ratio", "higher"),
	layer("core.fold_in_us_per_doc", "us", "lower"),
	layer("core.fold_in_model_gflops", "Gflop/s", "higher"),
	layer("core.plan_update_ms", "ms", "lower"),
	layer("core.plan_update_model_gflops", "Gflop/s", "higher"),
	layer("core.model_from_snapshot_ms", "ms", "lower"),

	layer("rank.topk_us", "us", "lower"),
	layer("rank.topk_batch_us_per_q", "us", "lower"),
	layer("rank.scanned_rows_per_q", "count", "lower"),
	layer("rank.scan_fraction", "ratio", "lower"),
	layer("rank.clusters_scanned_per_q", "count", "lower"),
	layer("rank.promoted_per_q", "count", "lower"),
	layer("rank.candidates_per_q", "count", "lower"),
	layer("rank.scan_gb_per_s", "GB/s", "higher"),
	layer("rank.bytes_per_doc", "B", "lower"),
	layer("rank.engine_build_s", "s", "lower"),
	layer("rank.ivf_build_s", "s", "lower"),
	layer("rank.extend_us_per_doc", "us", "lower"),

	layer("engine.rank_top_us", "us", "lower"),
	layer("engine.new_s", "s", "lower"),
	layer("engine.ivf_absent_share", "ratio", "lower"),
	layer("engine.queue_full", "count", "lower"),

	layer("shard.search_us", "us", "lower"),
	layer("shard.search_self_us", "us", "lower"),
	layer("shard.search_s2_us", "us", "lower"),
	layer("shard.search_batch_us_per_q", "us", "lower"),
	layer("shard.submit_ms", "ms", "lower"),
	layer("shard.submit_p95_ms", "ms", "lower"),
	layer("shard.delete_ms", "ms", "lower"),
	layer("shard.compact_ms", "ms", "lower"),
	layer("shard.compactions", "count", "lower"),
	layer("shard.orthogonality_ms", "ms", "lower"),
	layer("shard.new_s", "s", "lower"),
	layer("shard.save_s", "s", "lower"),
	layer("shard.restore_self_s", "s", "lower"),

	layer("snapfile.open_ms", "ms", "lower"),
	layer("snapfile.verify_ms", "ms", "lower"),
	layer("snapfile.bytes_per_doc", "B", "lower"),

	layer("process.cpu_ms_per_op", "ms", "lower"),
	layer("process.heap_mb", "MB", "lower"),
	layer("process.mallocs_per_op", "count", "lower"),
	layer("process.gc_cycles", "count", "lower"),
	layer("process.qps_median_block", "1/s", "higher"),
	layer("process.block_spread_pct", "%", "lower"),
	layer("env.calib_ms", "ms", "lower"),
	layer("trace.overhead_pct", "%", "lower"),
	layer("trace.ladder_sum_pct", "%", "higher"),
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured phase the block counts were chosen for.
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadSpec{w.name, w.why})
	}
	return m
}

func manifestJSON() []byte {
	b, _ := json.MarshalIndent(buildManifest(), "", "  ") // plain data cannot fail to marshal
	return append(b, '\n')
}

// loadManifest reads a BENCHMARK.json for -compare.
func loadManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
