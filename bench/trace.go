// benchmark harness: wall-clock timing is the product.
//lsilint:file-ignore walltime

package main

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dense"
	"repro/internal/rank"
	"repro/internal/text"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the span one rung up the ladder (0 = none). The rungs below
// the HTTP request are replays — the same call made again from outside,
// one layer at a time — so their intervals follow the request's instead
// of nesting inside it; parent records the ladder, not the clock.
type span struct {
	Req     int    `json:"req"`
	ID      int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans and named sample series in memory; nothing is
// written until the run ends.
type tracer struct {
	t0      time.Time
	spans   []span
	series  map[string][]float64
	lastReq int
	// Sinks keep replayed results live so the calls cannot be elided.
	tokSink  []string
	itemSink []rank.Item
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), series: make(map[string][]float64)}
}

func (t *tracer) newRequest() int {
	t.lastReq++
	return t.lastReq
}

func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return id
}

// timed runs f as a child span of parent and returns its id and duration
// in microseconds.
func (t *tracer) timed(req, parent int, name string, f func()) (int, float64) {
	start := time.Now()
	f()
	end := time.Now()
	return t.add(req, parent, name, start, end), us(end.Sub(start))
}

func (t *tracer) observe(name string, v float64) {
	t.series[name] = append(t.series[name], v)
}

func (t *tracer) median(name string) float64 { return median(t.series[name]) }

func (t *tracer) mean(name string) float64 {
	xs := t.series[name]
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// selfTime is a rung's duration minus what the rungs directly below it
// took.
func selfTime(total float64, children ...float64) float64 {
	return total - sum(children)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordScreen feeds one query's kernel counters into the count series.
func (t *tracer) recordScreen(st rank.ScreenStats, rows int) {
	t.observe("rank.scanned_rows_per_q", float64(st.ScannedRows))
	t.observe("rank.scan_fraction", float64(st.ScannedRows)/float64(rows))
	t.observe("rank.clusters_scanned_per_q", float64(st.ClustersScanned))
	t.observe("rank.promoted_per_q", float64(st.Promoted))
	t.observe("rank.candidates_per_q", float64(st.Candidates))
	absent := 0.0
	if st.ClustersTotal == 0 {
		absent = 1
	}
	t.observe("engine.ivf_absent_share", absent)
}

// searchLadder replays one answered GET /search down the public calls
// that served it. primary marks the workload's own traffic: only it
// feeds the series that describe the workload (HTTP overhead, kernel
// counters); a probe of the other request kind feeds timings alone.
func (t *tracer) searchLadder(st *stack, o op, start, end time.Time, primary bool) {
	req := t.newRequest()
	root := t.add(req, 0, "http.request", start, end)
	router := st.router()
	q := o.queries[0]

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(o.method, o.path, nil)
	h, dH := t.timed(req, root, "server.search", func() { st.srv.ServeHTTP(rec, hreq) })

	var raw []float64
	qv, dQV := t.timed(req, h, "corpus.query_vector", func() { raw = router.Collection().QueryVector(q) })
	_, dTok := t.timed(req, qv, "text.tokenize", func() { t.tokSink = text.Tokenize(q) })
	sh, dSh := t.timed(req, h, "shard.search", func() { router.Search(raw, topN) })
	snap := router.ShardSnapshot(0)
	en, dEn := t.timed(req, sh, "engine.rank_top", func() { snap.RankTop(raw, topN) })
	var qhat []float64
	_, dPr := t.timed(req, en, "core.project", func() { qhat = snap.Model.ProjectQuery(raw) })
	var stats rank.ScreenStats
	_, dTk := t.timed(req, en, "rank.topk", func() {
		t.itemSink, stats = snap.Eng.TopKSkipWithStats(qhat, topN, snap.Dead)
	})

	t.observe("server.search_us", dH)
	t.observe("server.search_self_us", selfTime(dH, dQV, dSh))
	t.observe("corpus.query_vector_us", dQV)
	t.observe("corpus.query_vector_self_us", selfTime(dQV, dTok))
	t.observe("text.tokenize_us", dTok)
	t.observe("shard.search_us", dSh)
	t.observe("shard.search_self_us", selfTime(dSh, dEn))
	t.observe("engine.rank_top_us", dEn)
	t.observe("engine.rank_top_self_us", selfTime(dEn, dPr, dTk))
	t.observe("core.project_us", dPr)
	t.observe("rank.topk_us", dTk)
	nnz := 0
	for _, x := range raw {
		if x != 0 {
			nnz++
		}
	}
	t.observe("core.project_useful_ratio", float64(nnz)/float64(len(raw)))
	if primary {
		t.observe("http.overhead_us", us(end.Sub(start))-dH)
		t.recordScreen(stats, snap.Eng.NumDocs())
		t.observe("rank.kernel_us", dTk)
	}
}

// batchLadder is searchLadder for POST /search/batch.
func (t *tracer) batchLadder(st *stack, o op, start, end time.Time, primary bool) {
	req := t.newRequest()
	root := t.add(req, 0, "http.request", start, end)
	router := st.router()
	n := float64(len(o.queries))

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(o.method, o.path, strings.NewReader(o.body))
	h, dH := t.timed(req, root, "server.search_batch", func() { st.srv.ServeHTTP(rec, hreq) })

	raws := make([][]float64, len(o.queries))
	t.timed(req, h, "corpus.query_vector", func() {
		for i, q := range o.queries {
			raws[i] = router.Collection().QueryVector(q)
		}
	})
	sh, dSh := t.timed(req, h, "shard.search_batch", func() { router.SearchBatch(raws, topN) })
	snap := router.ShardSnapshot(0)
	en, _ := t.timed(req, sh, "engine.rank_batch", func() { snap.RankBatch(raws, topN) })
	qhats := make([][]float64, len(raws))
	t.timed(req, en, "core.project", func() {
		for i, raw := range raws {
			qhats[i] = snap.Model.ProjectQuery(raw)
		}
	})
	var stats []rank.ScreenStats
	_, dTk := t.timed(req, en, "rank.topk_batch", func() {
		_, stats = snap.Eng.TopKBatchSkipWithStats(dense.NewFromRows(qhats), topN, snap.Dead)
	})

	t.observe("server.batch_us_per_q", dH/n)
	t.observe("shard.search_batch_us_per_q", dSh/n)
	t.observe("rank.topk_batch_us_per_q", dTk/n)
	if primary {
		t.observe("http.overhead_us", us(end.Sub(start))-dH)
		for _, s := range stats {
			t.recordScreen(s, snap.Eng.NumDocs())
		}
		t.observe("rank.kernel_us", dTk)
	}
}

// ladder dispatches on the request kind.
func (t *tracer) ladder(st *stack, o op, start, end time.Time, primary bool) {
	if o.kind == opBatch {
		t.batchLadder(st, o, start, end, primary)
	} else {
		t.searchLadder(st, o, start, end, primary)
	}
}
