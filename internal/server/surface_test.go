package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// keySet returns the sorted keys of a decoded JSON object.
func keySet(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStatsKeySet pins the /stats wire surface: the top-level keys and
// the keys of one per_shard block, at 1 and 3 shards. Dashboards and the
// docs read these names; a refactor of the stats structs must not move
// them.
func TestStatsKeySet(t *testing.T) {
	perShard := []string{
		"clusters_scanned", "compactions", "documents", "folded_documents",
		"generation", "ivf_clusters", "ivf_placed_rows", "ivf_rebuilds",
		"ivf_unclustered_tail", "mirror_max_eps", "queries", "queue_depth", "rescore_candidates",
		"scanned_rows", "screening", "shard", "tombstones",
	}
	top := []string{
		"clusters_scanned", "compacting", "compactions", "documents",
		"factors", "folded_documents", "generation", "generations",
		"ivf_clusters", "ivf_placed_rows", "ivf_rebuilds",
		"ivf_unclustered_tail", "mirror_max_eps", "orthogonality_loss", "per_shard", "queries",
		"queue_depth", "rescore_candidates", "scanned_rows", "screening",
		"shards", "sigma1", "terms", "tombstones",
	}

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, _ := shardedServer(t, shards)
			var st map[string]any
			if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if got := keySet(st); !reflect.DeepEqual(got, top) {
				t.Errorf("top-level keys\n got %v\nwant %v", got, top)
			}
			blocks, _ := st["per_shard"].([]any)
			if len(blocks) != shards {
				t.Fatalf("%d per_shard blocks want %d", len(blocks), shards)
			}
			if got := keySet(blocks[shards-1].(map[string]any)); !reflect.DeepEqual(got, perShard) {
				t.Errorf("per_shard keys\n got %v\nwant %v", got, perShard)
			}
		})
	}
}

// TestMetricsFamiliesMatchServingDoc diffs the metric families /metrics
// renders against the first column of the metrics table in
// docs/SERVING.md, so a family can be neither added nor dropped without
// the operator documentation following.
func TestMetricsFamiliesMatchServingDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	families := func(re *regexp.Regexp, text []byte) []string {
		var names []string
		for _, m := range re.FindAllSubmatch(text, -1) {
			names = append(names, string(m[1]))
		}
		sort.Strings(names)
		return names
	}
	documented := families(regexp.MustCompile("(?m)^\\| `(lsi_[a-z0-9_]+)"), doc)

	s, _ := shardedServer(t, 2)
	rendered := families(regexp.MustCompile(`(?m)^# TYPE (lsi_[a-z0-9_]+) `), get(t, s, "/metrics").Body.Bytes())

	if !reflect.DeepEqual(rendered, documented) {
		t.Errorf("/metrics families diverge from docs/SERVING.md\nrendered   %v\ndocumented %v", rendered, documented)
	}
}
