// benchmark harness: wall-clock timing is the product.
//lsilint:file-ignore walltime

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/server"
)

// runConfig is one invocation: a workload, a seed, a length and whether
// the per-layer (traced) or the end-to-end metrics are wanted.
type runConfig struct {
	w       workload
	sc      scale
	seed    int64
	seconds int
	trace   bool
	// outDir receives the snapshot files (removed after use) and the
	// trace dump.
	outDir string
	stdout io.Writer
}

// runResult is one line of a result file. The last line of standard
// output carries only Correct, Attempted, Failed and Metrics.
type runResult struct {
	Env       envBlock               `json:"env"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info"`
}

// tally counts operations and checks; a failed check is a failed
// operation.
type tally struct {
	attempted, failed int
	errs              []error
}

const keptErrors = 5

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < keptErrors {
		t.errs = append(t.errs, err)
	}
}

// check counts one attempted operation and its outcome.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

// run is the state of one invocation.
type run struct {
	cfg    runConfig
	in     *inputs
	blocks int // measured blocks
	tally  tally
	values map[string]float64 // every metric measured so far, by name
	info   map[string]any
	tr     *tracer

	st      *stack
	pb      *probeBase
	clients []*loadClient
	// gate are the correctness-gate queries; gate[0] is also the "first
	// answer" that ends a set-up or restore clock.
	gate []op

	// earlySnap is the snapshot file the first set-up's stack wrote before
	// it was torn down, and firstBody that stack's answer to gate[0] after
	// writing it: the restores timed early and halfway through the run
	// read this file, so that the three timed restores do not all sit in
	// the run's last seconds. restoreS collects the timings.
	earlySnap string
	firstBody []byte
	restoreS  []float64

	// bestOpS is the best untraced block's wall time per operation and
	// client, what the traced block's is compared with.
	bestOpS float64

	// stages is where the run's own wall time went, for budgeting the run
	// against the driver's cap; lastMark is when the previous stage ended.
	stages   map[string]float64
	lastMark time.Time
}

// mark closes the stage that ran since the previous mark.
func (r *run) mark(stage string) {
	now := time.Now()
	r.stages[stage] += now.Sub(r.lastMark).Seconds()
	r.lastMark = now
}

// fetch sends one operation outside any timed loop and returns a copy of
// the reply.
func fetch(c *loadClient, base string, o op) ([]byte, error) {
	req, err := buildRequest(base, o)
	if err != nil {
		return nil, err
	}
	status, err := c.do(req)
	if err != nil {
		return nil, err
	}
	if err := quickCheck(o, status, c.buf.Bytes()); err != nil {
		return nil, err
	}
	return append([]byte(nil), c.buf.Bytes()...), nil
}

// firstAnswer asks a fresh stack its first question over a fresh
// connection — the event that stops a set-up or restore clock.
func (r *run) firstAnswer(st *stack) ([]byte, error) {
	c := newLoadClient()
	defer c.close()
	return fetch(c, st.base, r.gate[0])
}

func execute(cfg runConfig) (*runResult, error) {
	blocks := cfg.w.blocksFor(cfg.seconds)
	if cfg.trace {
		// The traced run spends its time on the ladder and the probes; a
		// few untraced blocks are enough for the process counters and the
		// overhead comparison.
		blocks = max(2, blocks/4)
	}
	env := newEnv(cfg.seed, cfg.sc, blocks)
	env.CalibBeforeMs = calibrate()

	r := &run{cfg: cfg, blocks: blocks, values: make(map[string]float64),
		info: make(map[string]any), tr: newTracer(), stages: make(map[string]float64), lastMark: time.Now()}
	r.info["stage_s"] = r.stages
	r.in = generateInputs(cfg.w, cfg.sc, cfg.seed, blocks)
	r.mark("inputs")
	for _, q := range r.in.queries(cfg.sc.gateQueries, streamGate) {
		r.gate = append(r.gate, searchOp(q))
	}
	for c := 0; c < clients; c++ {
		r.clients = append(r.clients, newLoadClient())
	}
	defer func() {
		for _, c := range r.clients {
			c.close()
		}
	}()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	err := r.measure()
	if r.earlySnap != "" {
		os.Remove(r.earlySnap)
	}
	if r.st != nil {
		if cerr := r.st.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}

	env.CalibAfterMs = calibrate()
	env.CalibMs = (env.CalibBeforeMs + env.CalibAfterMs) / 2
	r.values["env.calib_ms"] = env.CalibMs
	if cfg.trace {
		if err := r.tr.write(filepath.Join(cfg.outDir, cfg.w.name+".trace.jsonl")); err != nil {
			return nil, err
		}
	}

	res := &runResult{Env: env, Workload: cfg.w.name, Trace: cfg.trace,
		Correct: r.tally.failed == 0, Attempted: r.tally.attempted, Failed: r.tally.failed,
		Metrics: make(map[string]metricValue), Info: r.info}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(cfg.stdout, "%-32s %16.6f %s\n", d.Name, v, d.Unit)
	}
	errs := make([]string, len(r.tally.errs))
	for i, e := range r.tally.errs {
		fmt.Fprintf(cfg.stdout, "FAILED: %v\n", e)
		errs[i] = e.Error()
	}
	r.info["errors"] = errs
	return res, nil
}

// measure runs every stage in order. A returned error is a harness
// failure (nothing to report); wrong answers and refused operations go
// to the tally instead.
func (r *run) measure() error {
	if err := r.setUp(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.mark("setup")
	if err := r.earlyRestore(); err != nil {
		return err
	}
	r.mark("save_restore")
	oracle := snapshotOracle(r.st.router())
	for _, g := range r.gate {
		body, err := fetch(r.clients[0], r.st.base, g)
		if err == nil {
			err = oracle.checkExact(g, body)
		}
		r.tally.check(err)
	}
	if r.cfg.w.churn {
		// Untimed pool seeding: the documents block 0 will delete.
		for c := 0; c < clients; c++ {
			for _, d := range r.in.churnPosts(-1, c) {
				_, err := fetch(r.clients[c], r.st.base, postOp(d))
				r.tally.check(err)
			}
		}
	}
	r.mark("gate")
	if err := r.measuredBlocks(oracle); err != nil {
		return err
	}
	r.mark("blocks")
	if r.cfg.trace {
		if err := r.tracedBlock(); err != nil {
			return err
		}
		r.mark("traced_block")
		if err := pureProbes(r.in, r.pb, r.tr, r.values); err != nil {
			return err
		}
		r.mark("probes")
	} else {
		if err := r.quality(oracle); err != nil {
			return err
		}
		r.mark("quality")
	}
	if err := r.saveAndRestore(); err != nil {
		return err
	}
	r.mark("save_restore")
	if r.cfg.trace {
		if err := writeProbes(r.in, r.st.router(), r.tr, r.values); err != nil {
			return err
		}
		r.layerMetrics()
		r.mark("probes")
	}
	return nil
}

// setUp builds the served stack: best of sc.setups complete set-ups for
// the end-to-end run, one staged set-up for the traced run. The clock
// runs from documents in memory to the first answer; answers are checked
// after it stops.
func (r *run) setUp() error {
	if r.cfg.trace {
		st, pb, err := stagedSetup(r.in.docs, r.cfg.sc, r.values)
		if err != nil {
			return err
		}
		r.st, r.pb = st, pb
		body, err := r.firstAnswer(st)
		if err == nil {
			err = snapshotOracle(st.router()).checkExact(r.gate[0], body)
		}
		r.tally.check(err)
		return nil
	}
	var times []float64
	var bodies [][]byte
	for i := 0; i < r.cfg.sc.setups; i++ {
		if r.st != nil {
			if err := r.st.close(); err != nil {
				return err
			}
			r.st = nil
		}
		settle()
		start := time.Now()
		st, err := buildStack(r.in.docs, r.cfg.sc)
		if err != nil {
			return err
		}
		r.st = st
		body, err := r.firstAnswer(st)
		times = append(times, since(start))
		if err != nil {
			r.tally.check(err)
			continue
		}
		bodies = append(bodies, body)
		if r.earlySnap == "" {
			if err := r.saveEarly(st); err != nil {
				return err
			}
		}
	}
	oracle := snapshotOracle(r.st.router())
	for _, body := range bodies {
		r.tally.check(oracle.checkExact(r.gate[0], body))
	}
	r.values["setup_s"] = minOf(times)
	r.info["setup_all_s"] = times
	return nil
}

// measuredBlocks runs the warm-up block and the measured ones, verifies
// the sampled answers of each, and reduces them to the timing metrics.
func (r *run) measuredBlocks(oracle *oracle) error {
	router := r.st.router()
	var sums []blockSummary
	var used usageDelta
	full503 := 0
	for b := 0; b <= r.blocks; b++ {
		scripts := make([][]op, clients)
		for c := range scripts {
			scripts[c] = r.in.script(b, c)
		}
		compactions := router.Stats().Compactions
		res, err := runBlock(r.clients, r.st.base, scripts, router.Compact)
		if err != nil {
			return err
		}
		r.tally.attempted += res.ops()
		for _, cb := range res.clients {
			for i := 0; i < cb.failed; i++ {
				r.tally.fail(cb.firstErr)
			}
			full503 += cb.full503
			for _, s := range cb.samples {
				// Read-only workloads serve one snapshot for the whole run,
				// so every sample is held to the exact oracle; under churn
				// the sample's snapshot is gone and its shape is checked.
				var err error
				if r.cfg.w.churn {
					err = checkShape(s.o, s.body)
				} else {
					err = oracle.checkExact(s.o, s.body)
				}
				if err != nil {
					r.tally.fail(err)
				}
			}
			if cb.compactNs > 0 {
				r.tr.observe("shard.compact_ms", float64(cb.compactNs)/1e6)
			}
		}
		if r.cfg.w.churn {
			var err error
			if got := router.Stats().Compactions - compactions; got != 1 {
				err = fmt.Errorf("block %d held %d compactions, want exactly 1", b, got)
			}
			r.tally.check(err)
		}
		if b == 0 {
			continue // warm-up: checked, not recorded
		}
		sums = append(sums, res.summary())
		used.add(res.usage)
		if b == r.blocks/2 {
			if err := r.earlyRestore(); err != nil {
				return err
			}
		}
	}

	if r.cfg.w.churn {
		st := router.Stats()
		var err error
		if st.Documents != r.in.churnLive() {
			err = fmt.Errorf("%d live documents after the last block, script holds %d", st.Documents, r.in.churnLive())
		}
		r.tally.check(err)
		err = nil
		if want := int64(r.blocks + 1); st.Compactions != want {
			err = fmt.Errorf("%d compactions after the last block, want %d", st.Compactions, want)
		}
		r.tally.check(err)
		// Quiesced again: the final snapshot must serve exactly.
		final := snapshotOracle(router)
		for _, g := range r.gate {
			body, err := fetch(r.clients[0], r.st.base, g)
			if err == nil {
				err = final.checkExact(g, body)
			}
			r.tally.check(err)
		}
	}

	n := len(sums)
	ops, walls, rates, p50s, tails := 0, make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, s := range sums {
		ops += s.ops
		walls[i] = s.wallS
		rates[i] = float64(s.ops) / s.wallS
		p50s[i], tails[i] = s.p50Ms, s.tailMs
	}
	qps, p50, tail := bestOfBlocks(sums)
	v := r.values
	v["qps"], v["p50_ms"], v["tail_ms"] = qps, p50, tail
	v["alloc_kb_per_op"] = float64(used.allocBytes) / 1024 / float64(ops)
	v["process.cpu_ms_per_op"] = float64(used.cpu) / 1e6 / float64(ops)
	v["process.mallocs_per_op"] = float64(used.mallocs) / float64(ops)
	v["process.gc_cycles"] = float64(used.numGC)
	v["process.qps_median_block"] = median(rates)
	v["process.block_spread_pct"] = 100 * (maxOf(walls) - minOf(walls)) / minOf(walls)
	v["process.heap_mb"] = heapMB()
	v["shard.compactions"] = float64(router.Stats().Compactions)
	v["engine.queue_full"] = float64(full503)
	rss, err := settledRSS()
	if err != nil {
		return err
	}
	v["rss_mb"] = rss
	r.bestOpS = minOf(walls) * clients / float64(sums[0].ops)
	r.info["block_wall_s"] = walls
	r.info["compactions_after_blocks"] = router.Stats().Compactions
	r.info["block_p50_ms"], r.info["block_tail_ms"] = p50s, tails
	r.info["tail_percentile"] = sums[0].tailP
	return nil
}

// quality is the mean overlap@topN, by document ID, between what the
// stack serves now and the exact float64 top-N in a model of the final
// live documents. On a read-only workload that model is the served one
// (a fresh build of the same documents is bit-identical); under churn it
// is built anew, as a full recompute (§3.4) would.
func (r *run) quality(served *oracle) error {
	ref := served
	if r.cfg.w.churn {
		snap := r.st.router().ShardSnapshot(0)
		live := make([]corpus.Document, 0, snap.LiveDocs())
		for i, d := range snap.Docs {
			if !snap.Dead.Has(i) {
				live = append(live, d)
			}
		}
		var err error
		if ref, err = freshOracle(live, r.cfg.sc); err != nil {
			return fmt.Errorf("quality reference: %w", err)
		}
	}
	total := 0.0
	qs := r.in.queries(r.cfg.sc.qualityQueries, streamQuality)
	for _, q := range qs {
		o := searchOp(q)
		body, err := fetch(r.clients[0], r.st.base, o)
		var lists [][]server.SearchResult
		if err == nil {
			lists, err = decodeAnswers(o, body)
		}
		r.tally.check(err)
		if err == nil {
			total += ref.overlap(q, lists[0])
		}
	}
	r.values["quality"] = total / float64(len(qs))
	return nil
}

// tracedBlock runs client 0's next script alone with the ladder replay
// after every read, then probes the request kind the workload does not
// send, so every layer series exists on every workload.
func (r *run) tracedBlock() error {
	router := r.st.router()
	script := r.in.script(r.blocks+1, 0)
	if !r.cfg.w.churn {
		// Each traced read costs its request plus five replays; half a
		// script is still hundreds of ladders. A churn script stays whole:
		// its second half holds the reads that follow the compaction.
		script = script[:len(script)/2]
	}
	reqs, err := buildRequests(r.st.base, script)
	if err != nil {
		return err
	}
	start := time.Now()
	cb := r.clients[0].runScript(script, reqs, router.Compact, func(o op, s, e time.Time) {
		r.tr.ladder(r.st, o, s, e, true)
	})
	wall := since(start)
	r.tally.attempted += cb.ops
	for i := 0; i < cb.failed; i++ {
		r.tally.fail(cb.firstErr)
	}
	if cb.compactNs > 0 {
		r.tr.observe("shard.compact_ms", float64(cb.compactNs)/1e6)
	}
	r.values["http.failed_ops"] = float64(cb.failed)
	r.values["engine.queue_full"] += float64(cb.full503)
	r.values["trace.overhead_pct"] = 100 * (wall/float64(cb.ops)/r.bestOpS - 1)

	var probes []op
	if r.cfg.w.batch {
		for _, q := range r.in.queries(r.cfg.sc.probeQueries, streamProbe, 3) {
			probes = append(probes, searchOp(q))
		}
	} else {
		qs := r.in.queries(r.cfg.sc.probeBatches*batchQueries, streamProbe, 3)
		for i := 0; i < len(qs); i += batchQueries {
			probes = append(probes, batchOp(qs[i:i+batchQueries]))
		}
	}
	for _, o := range probes {
		req, err := buildRequest(r.st.base, o)
		if err != nil {
			return err
		}
		s := time.Now()
		status, err := r.clients[0].do(req)
		e := time.Now()
		if err == nil {
			err = quickCheck(o, status, r.clients[0].buf.Bytes())
		}
		r.tally.check(err)
		if err == nil {
			r.tr.ladder(r.st, o, s, e, false)
		}
	}
	return nil
}

// saveEarly writes the snapshot the early restores read, from a stack
// that is about to be torn down, so the served stack's compaction count
// stays the script's. Nothing here is timed. On churn-mixed the stack
// first folds in the seeding pool: the snapshot then holds what a churned
// tier saves — folded documents compacted away by SaveSnapshot, the
// index rebuild that follows still pending — and costs what the final
// one costs to restore.
func (r *run) saveEarly(st *stack) error {
	if r.cfg.w.churn {
		for _, d := range r.in.churnPosts(-1, 0) {
			_, err := fetch(r.clients[0], st.base, postOp(d))
			r.tally.check(err)
		}
	}
	path := r.snapPath("early")
	if err := st.router().SaveSnapshot(path); err != nil {
		return fmt.Errorf("save early snapshot: %w", err)
	}
	body, err := fetch(r.clients[0], st.base, r.gate[0])
	if err != nil {
		return fmt.Errorf("early snapshot: %w", err)
	}
	r.earlySnap, r.firstBody = path, body
	return nil
}

// snapPath names a snapshot file of this run in the output directory.
func (r *run) snapPath(kind string) string {
	return filepath.Join(r.cfg.outDir, fmt.Sprintf("%s-%d-%s.lsnp", r.cfg.w.name, r.cfg.seed, kind))
}

// restoreOnce times one restore of the snapshot at path, from the file
// to the first answer, which must equal want byte for byte. check, when
// set, gets the restored stack before it is closed.
func (r *run) restoreOnce(path string, want []byte, check func(*stack)) error {
	settle()
	start := time.Now()
	rs, err := restoreStack(path)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	body, err := r.firstAnswer(rs)
	r.restoreS = append(r.restoreS, since(start))
	if err == nil && !bytes.Equal(body, want) {
		err = errors.New("restored router's first answer differs from the saved router's")
	}
	r.tally.check(err)
	if check != nil {
		check(rs)
	}
	return rs.close()
}

// earlyRestore is one of the two timed restores of the first set-up's
// snapshot (the traced run has none: it times the stages instead).
func (r *run) earlyRestore() error {
	if r.earlySnap == "" {
		return nil
	}
	return r.restoreOnce(r.earlySnap, r.firstBody, nil)
}

// saveAndRestore writes the served tier's snapshot, times the last
// restore — restore_s is the best of it and the early ones — and
// requires the restored router to answer the gate queries byte for byte
// as the saved one does.
func (r *run) saveAndRestore() error {
	path := r.snapPath("final")
	defer os.Remove(path)
	start := time.Now()
	if err := r.st.router().SaveSnapshot(path); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	r.values["shard.save_s"] = since(start)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.values["snapshot_mb"] = float64(info.Size()) / (1 << 20)

	// SaveSnapshot compacts first, so the saved answers are taken after it.
	saved := make([][]byte, len(r.gate))
	for i, g := range r.gate {
		body, err := fetch(r.clients[0], r.st.base, g)
		if err != nil {
			r.tally.check(err)
			return nil
		}
		saved[i] = body
	}

	if r.cfg.trace {
		if err := restoreProbes(path, r.st.router(), r.values); err != nil {
			return fmt.Errorf("restore probes: %w", err)
		}
	}
	err = r.restoreOnce(path, saved[0], func(rs *stack) {
		c := newLoadClient()
		defer c.close()
		for j, g := range r.gate {
			body, err := fetch(c, rs.base, g)
			if err == nil && !bytes.Equal(body, saved[j]) {
				err = fmt.Errorf("restored router answers %q differently from the saved one", g.queries[0])
			}
			r.tally.check(err)
		}
	})
	if err != nil {
		return err
	}
	r.values["restore_s"] = minOf(r.restoreS)
	r.info["restore_all_s"] = r.restoreS
	return nil
}

// layerMetrics reduces the tracer's series to the per-layer metrics:
// medians for timings, means for counts and shares.
func (r *run) layerMetrics() {
	v, tr := r.values, r.tr
	for _, name := range []string{
		"http.overhead_us", "server.search_us", "server.search_self_us", "server.batch_us_per_q",
		"text.tokenize_us", "corpus.query_vector_us", "core.project_us",
		"rank.topk_us", "rank.topk_batch_us_per_q", "engine.rank_top_us",
		"shard.search_us", "shard.search_self_us", "shard.search_s2_us", "shard.search_batch_us_per_q",
		"shard.submit_ms", "shard.delete_ms", "shard.compact_ms",
	} {
		v[name] = tr.median(name)
	}
	for _, name := range []string{
		"core.project_useful_ratio", "rank.scanned_rows_per_q", "rank.scan_fraction",
		"rank.clusters_scanned_per_q", "rank.promoted_per_q", "rank.candidates_per_q",
		"engine.ivf_absent_share",
	} {
		v[name] = tr.mean(name)
	}
	submits := append([]float64(nil), tr.series["shard.submit_ms"]...)
	sort.Float64s(submits)
	v["shard.submit_p95_ms"] = percentile(submits, 0.95)

	// Bytes are computed, not counted: stage-1 rows × dimension × the
	// width of the tier stage 1 scans, over the kernel time.
	eng := r.pb.eng
	scanned := sum(tr.series["rank.scanned_rows_per_q"]) * float64(eng.Dim()) * tierBytes(eng)
	v["rank.scan_gb_per_s"] = scanned / sum(tr.series["rank.kernel_us"]) / 1e3

	ladder := 0.0
	for _, name := range []string{
		"server.search_self_us", "corpus.query_vector_us", "shard.search_self_us",
		"engine.rank_top_self_us", "core.project_us", "rank.topk_us",
	} {
		ladder += tr.median(name)
	}
	v["trace.ladder_sum_pct"] = 100 * ladder / tr.median("server.search_us")
}

// appendResult adds the run as one JSON line to path.
func appendResult(path string, res *runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
