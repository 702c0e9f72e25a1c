package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// submitBytes returns the median heap bytes allocated per single-document
// Submit over rounds submits into an engine over coll and model, after
// warm submits that pay the one copy of V and of the scoring cache into
// allocations with headroom. The median discards the rare submit that
// lands on a map or document-list growth.
func submitBytes(t *testing.T, coll *corpus.Collection, model *core.Model, texts []string) uint64 {
	t.Helper()
	e, err := New(coll, model, Config{BatchTick: time.Microsecond, DisableIVF: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ctx := context.Background()
	const warm = 3
	var per []uint64
	var ms runtime.MemStats
	for i, text := range texts {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := e.Submit(ctx, corpus.Document{ID: fmt.Sprintf("new-%d", i), Text: text}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if i >= warm {
			per = append(per, ms.TotalAlloc-before)
		}
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// TestSubmitBytesIndependentOfN pins the price of a fold-in publish: the
// bytes one single-document Submit allocates must not grow with the
// collection (Table 7 prices folding in p documents at O(mkp), with no n
// in it). The same vocabulary, basis and documents serve both sizes, so
// only the row count differs; copying V on every batch makes the ratio
// track n (≈ 6 here).
func TestSubmitBytesIndependentOfN(t *testing.T) {
	syn := corpus.GenerateSynth(corpus.SynthOptions{Seed: 45, Docs: 12000, DocLen: 16, Topics: 12})
	coll := syn.Collection
	model, err := core.BuildCollection(coll, core.Config{K: 32, Method: core.MethodLanczos, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 19)
	for i := range texts {
		texts[i] = coll.Docs[i].Text
	}
	idx := make([]int, 2000)
	for i := range idx {
		idx[i] = i
	}
	small := submitBytes(t, corpus.Restore(coll.Docs[:2000], coll.Vocab, coll.ParseOptions()), model.DocSubsetView(idx), texts)
	large := submitBytes(t, corpus.Restore(coll.Docs, coll.Vocab, coll.ParseOptions()), model, texts)
	t.Logf("bytes per single-document submit: %d at 2000 docs, %d at 12000 (k=%d, %d terms)",
		small, large, model.K, model.NumTerms())
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("a submit at 12000 docs allocates %d bytes, %.1f× the %d at 2000: the publish copies O(n)",
			large, float64(large)/float64(small), small)
	}
}
