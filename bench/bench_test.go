package main

// The estimators are checked on synthetic samples whose results are exact.
//lsilint:file-ignore floatcmp

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pinnedDigests fixes the generated inputs (documents, gate queries and
// the op scripts of the warm-up and first measured block) of seed 1 at
// tiny scale. A change here changes what every recorded result measured.
var pinnedDigests = map[string]string{
	"topical-search": "a4f62d7e40ff1d0da5009b661fa14a9f55172a7a986183feada2e2b17f6eb1df",
	"blended-scan":   "b1386299bf309a98c0647a0c2d8e5432b0b7b939889b29905b68919e45b30dd0",
	"blended-batch":  "2db6acdda226e1eac227a438924bcb17afeaeedf9251a9ed3437d87e9961d25a",
	"churn-mixed":    "b1251dd63a50c151d7f10387df897a3e627433027fa67a9e2f62ab3235c48597",
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := generateInputs(w, tinyScale, 1, 2).digest(2)
		b := generateInputs(w, tinyScale, 1, 2).digest(2)
		c := generateInputs(w, tinyScale, 2, 2).digest(2)
		if a != b {
			t.Errorf("%s: same seed gave different inputs", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
		if want := pinnedDigests[w.name]; a != want {
			t.Errorf("%s: input digest %s, pinned %s", w.name, a, want)
		}
		// More blocks only append spare documents; the served corpus and
		// the early scripts must not move.
		if d := generateInputs(w, tinyScale, 1, 5).digest(2); d != a {
			t.Errorf("%s: inputs depend on the block count", w.name)
		}
	}
}

func TestChurnScriptKeepsLiveCountAndNeverRepeatsADelete(t *testing.T) {
	w, _ := workloadByName("churn-mixed")
	in := generateInputs(w, tinyScale, 3, 4)
	posted := make(map[string]int) // id → block it was posted in (-1 = seeding)
	for c := 0; c < clients; c++ {
		for _, d := range in.churnPosts(-1, c) {
			posted[d.ID] = -1
		}
	}
	deleted := make(map[string]bool)
	for b := 0; b <= 5; b++ {
		for c := 0; c < clients; c++ {
			posts, deletes, compacts := 0, 0, 0
			for _, o := range in.script(b, c) {
				switch o.kind {
				case opPost:
					posts++
					id := in.churnPosts(b, c)[posts-1].ID
					if _, dup := posted[id]; dup {
						t.Fatalf("block %d client %d posts %s twice", b, c, id)
					}
					posted[id] = b
				case opDelete:
					deletes++
					id := strings.TrimPrefix(o.path, "/docs/")
					if deleted[id] {
						t.Fatalf("block %d client %d deletes %s twice", b, c, id)
					}
					deleted[id] = true
					if at, ok := posted[id]; ok && at >= b {
						t.Fatalf("block %d deletes %s posted in block %d", b, id, at)
					}
				case opCompact:
					compacts++
				}
			}
			if posts != deletes || posts != tinyScale.churnWritesPerBlock() {
				t.Errorf("block %d client %d: %d posts, %d deletes", b, c, posts, deletes)
			}
			if want := map[bool]int{true: 1, false: 0}[c == 0]; compacts != want {
				t.Errorf("block %d client %d: %d scripted compactions, want %d", b, c, compacts, want)
			}
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v of 1..100 = %v, want %v", tc.p*100, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuietMedianTakesTheLeastWindowMedian(t *testing.T) {
	// Three windows of 4: medians 2 ms, 1 ms, 3 ms; the trailing partial
	// window (0.1 ms) is not a window.
	ns := []int64{1e6, 2e6, 9e6, 9e6, 1e6, 1e6, 5e6, 5e6, 3e6, 3e6, 3e6, 3e6, 1e5}
	if got := quietMedian(ns, 4); got != 1 {
		t.Errorf("quietMedian = %v ms, want 1", got)
	}
	// Fewer samples than a window: the one short window counts.
	if got := quietMedian([]int64{4e6, 2e6, 6e6}, 100); got != 4 {
		t.Errorf("short quietMedian = %v ms, want 4", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if beyond := tc.n - (rankIndex(tc.n, got) + 1); got != 0.5 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, got*100)
		}
	}
}

func TestBestOfBlocksTakesEachMetricFromItsBestBlock(t *testing.T) {
	blocks := []blockSummary{
		{wallS: 2, ops: 1000, p50Ms: 1.0, tailMs: 9},
		{wallS: 1, ops: 1000, p50Ms: 1.2, tailMs: 5}, // fastest block
		{wallS: 4, ops: 1000, p50Ms: 0.9, tailMs: 7}, // disturbed, but lowest median
	}
	qps, p50, tail := bestOfBlocks(blocks)
	if qps != 1000 || p50 != 0.9 || tail != 5 {
		t.Errorf("bestOfBlocks = %v qps, %v p50, %v tail; want 1000, 0.9, 5", qps, p50, tail)
	}
}

func TestQuartileSpreadMatchesExclusiveQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsTheRungsBelow(t *testing.T) {
	// handler 126 = QueryVector 7.5 + Router.Search 84.5 + self 34.
	if got := selfTime(126, 7.5, 84.5); got != 34 {
		t.Errorf("selfTime = %v, want 34", got)
	}
	tr := newTracer()
	req := tr.newRequest()
	root, _ := tr.timed(req, 0, "a", func() {})
	child, _ := tr.timed(req, root, "b", func() {})
	if tr.spans[child-1].Parent != root || tr.spans[child-1].Req != req {
		t.Errorf("child span %+v does not point at root %d of request %d", tr.spans[child-1], root, req)
	}
}

func TestJudge(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.8, c, c * 1.2, c * 1.3} }
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   verdict
	}{
		{"same", tight(100), tight(101), false, within},
		{"lower-better regressed", tight(100), tight(120), false, worse},
		{"lower-better improved", tight(100), tight(80), false, within},
		{"higher-better regressed", tight(100), tight(80), true, worse},
		{"higher-better improved", tight(100), tight(120), true, within},
		{"too noisy to tell", wide(100), wide(108), false, unresolved},
		{"noisy but disjoint and worse", wide(100), wide(300), false, worse},
		{"noisy but disjoint and better", wide(100), wide(30), false, within},
	} {
		if got := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestManifestFileIsGeneratedFromTheTables(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing from the end-to-end metrics")
	}
}

// TestSmokeEveryWorkloadPrintsEveryMetric runs all four workloads at
// tiny scale in both modes and requires a correct run that prints each
// metric BENCHMARK.json names for that mode exactly once, with its unit.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				res, err := execute(runConfig{w: w, sc: tinyScale, seed: 7, seconds: 2, trace: trace,
					outDir: t.TempDir(), stdout: &out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Info["errors"])
				}
				defs := m.EndToEnd
				if trace {
					defs = m.PerLayer
				}
				printed := make(map[string][]string)
				for _, line := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(line); len(f) == 3 {
						printed[f[0]] = append(printed[f[0]], f[2])
					}
				}
				for _, d := range defs {
					if units := printed[d.Name]; len(units) != 1 || units[0] != d.Unit {
						t.Errorf("metric %s printed with units %v, want exactly one %q", d.Name, units, d.Unit)
					}
					if _, ok := res.Metrics[d.Name]; !ok {
						t.Errorf("metric %s missing from the result", d.Name)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result carries %d metrics, manifest names %d", len(res.Metrics), len(defs))
				}
				if w.churn {
					if got, want := res.Info["compactions_after_blocks"], int64(res.Env.Blocks+1); got != want {
						t.Errorf("churn run held %v compactions after its blocks, want %d", got, want)
					}
				}
			})
		}
	}
}
