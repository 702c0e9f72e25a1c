package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/corpus"
)

// clients is the closed-loop client count. It is a constant, not
// runtime.NumCPU(), so the op scripts (and their pinned hashes) are the
// same on every machine; the box this was sized on has nproc = 2.
const clients = 2

// procs is the GOMAXPROCS main pins a run to. The second vCPU of the box
// this was written on comes and goes with the host's other tenants: the
// same two-client block ran in 1.2 s and, ten minutes later, in 2.4 s at
// GOMAXPROCS=2, while at GOMAXPROCS=1 it took 2.4-2.7 s both times. On
// one P the run measures CPU per operation, which is what stays put; the
// parallel branches of the kernels run their serial path (a known gap).
const procs = 1

// topN is the result-list length every search asks for.
const topN = 10

// batchQueries is how many queries one POST /search/batch carries.
const batchQueries = 16

// workload names one traffic mix. The three booleans are the only
// things the rest of the harness branches on.
type workload struct {
	name string
	why  string
	// blocks is the number of measured blocks at the manifest's
	// --seconds: never below 8, and more where a block is short enough
	// that the run still fits its budget — the more blocks, the likelier
	// one of them ran undisturbed.
	blocks int
	// blended documents are thirds of three topical documents and queries
	// mix two topics, so cluster bounds cannot prune.
	blended bool
	// batch sends batchQueries queries per request to /search/batch.
	batch bool
	// churn interleaves posts and deletes with reads and scripts one
	// coordinated compaction per block.
	churn bool
}

var workloads = []workload{
	{name: "topical-search", blocks: 16,
		why: "single-topic documents and queries: IVF prunes to ~2% of rows, so tokenise, project, JSON and HTTP are ~70% of client latency"},
	{name: "blended-scan", blocks: 12, blended: true,
		why: "documents and queries mix topics so cell bounds cannot prune: the single-query rank kernels are >90% of the handler"},
	{name: "blended-batch", blocks: 8, blended: true, batch: true,
		why: "same unprunable corpus through POST /search/batch (16 queries): the gemm-tiled TopKBatch family instead of the single-query kernels"},
	{name: "churn-mixed", blocks: 12, churn: true,
		why: "reads beside posts, deletes and one scripted compaction per block: fold-in, publish, tombstone kernels, downdating, IVF rebuild"},
}

// blocksFor maps the contract's --seconds to a count of measured blocks.
// Work per block is fixed; a longer run measures more blocks, never
// longer ones.
func (w workload) blocksFor(seconds int) int {
	return max(2, seconds*w.blocks/runSeconds)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale fixes the corpus shape and the per-block work. Every count is a
// compile-time constant: a block carries the same number of operations
// on every run, which is what lets the best block stand for the run.
type scale struct {
	name                    string
	docs, docLen            int
	topics, concepts, noise int
	k                       int
	// Per-client operations in one block.
	topicalReads, scanReads, batchRequests int
	// churn: rounds × (churnReads reads, churnWrites posts, churnWrites deletes).
	churnRounds, churnReads, churnWrites int
	// gateQueries / qualityQueries size the correctness gate and the
	// quality probe.
	gateQueries, qualityQueries int
	// Probe sizes for the traced run.
	probeDocs, writeProbes, probeQueries, probeBatches int
	// setups is how often the set-up is repeated.
	setups int
}

// Sized so that one block takes a second or less on one P of the 2-vCPU
// box this was written on (topical ≈ 6.0 k qps, scan ≈ 1.1 k qps, batch
// ≈ 1.2 k queries/s, churn ≈ 1.6 k ops/s) and a whole run about 25 s:
// the driver's 92 runs share 3420 s, and a slow phase of the box
// stretches a run by a third. 12 000 documents, not the issue's 20 000,
// is what that leaves room for beside 8-16 blocks and three repetitions
// of the one-shot stages; every O(n) stage (generation, set-up, restore,
// the churn quality reference) scales with it.
var fullScale = scale{
	name: "full", docs: 12000, docLen: 60, topics: 64, concepts: 24, noise: 200, k: 64,
	topicalReads: 2000, scanReads: 500, batchRequests: 50,
	churnRounds: 6, churnReads: 100, churnWrites: 2,
	gateQueries: 64, qualityQueries: 256,
	probeDocs: 32, writeProbes: 40, probeQueries: 150, probeBatches: 16,
	setups: 3,
}

// tinyScale is the smoke-test shape: every code path, no meaningful
// timings.
var tinyScale = scale{
	name: "tiny", docs: 500, docLen: 40, topics: 8, concepts: 12, noise: 40, k: 16,
	topicalReads: 60, scanReads: 60, batchRequests: 6,
	churnRounds: 3, churnReads: 12, churnWrites: 2,
	gateQueries: 16, qualityQueries: 32,
	probeDocs: 8, writeProbes: 6, probeQueries: 20, probeBatches: 3,
	setups: 2,
}

func scaleByName(name string) (scale, bool) {
	switch name {
	case "full":
		return fullScale, true
	case "tiny":
		return tinyScale, true
	}
	return scale{}, false
}

// churnWritesPerBlock is how many posts (and as many deletes) one client
// issues in one churn block.
func (s scale) churnWritesPerBlock() int { return s.churnRounds * s.churnWrites }

// mix derives an independent stream seed from the run seed and a path of
// small integers (splitmix64 finaliser), so block b of client c draws
// the same operations whatever ran before it.
func mix(seed int64, path ...int) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// Stream tags for mix.
const (
	streamBlend = iota + 1
	streamScript
	streamGate
	streamQuality
	streamDeletes
	streamProbe
)

// inputs is everything a run feeds the system, generated from the seed
// before any clock starts.
type inputs struct {
	w  workload
	sc scale
	// docs is the served corpus; spare are further topical documents of
	// the same generator, posted by churn-mixed and by the write probes.
	docs, spare []corpus.Document
	// topicWords[t] lists topic t's surface words that survived the
	// vocabulary's min-docs rule, so no sampled query is empty.
	topicWords [][]string
	// deleteOrder is a seed-fixed permutation of base document indices;
	// churn deletes walk it so no base document is deleted twice.
	deleteOrder []int
	seed        int64
}

// spareDocs bounds the posts of one run: the untimed pool seeding, the
// warm-up, the measured and traced blocks, and the write probes.
func spareDocs(sc scale, blocks int) int {
	return clients*sc.churnWritesPerBlock()*(blocks+3) + sc.writeProbes + sc.probeDocs
}

func generateInputs(w workload, sc scale, seed int64, blocks int) *inputs {
	spare := spareDocs(sc, blocks)
	synth := corpus.GenerateSynth(corpus.SynthOptions{
		Seed: seed, Topics: sc.topics, ConceptsPerTopic: sc.concepts, SynonymsPerConcept: 3,
		Docs: sc.docs + spare, DocLen: sc.docLen, NoiseWords: sc.noise, NoiseZipf: true,
	})
	in := &inputs{w: w, sc: sc, seed: seed}
	all := synth.Docs
	in.docs, in.spare = all[:sc.docs:sc.docs], all[sc.docs:]
	for i := range in.spare {
		in.spare[i].ID = fmt.Sprintf("S%05d", i)
	}
	if w.blended {
		in.docs = blendDocs(in.docs, sc.docLen, mix(seed, streamBlend))
	}

	// Topic vocabularies: SynonymGroups lists concept groups topic-major.
	// A word counts only if at least two served documents carry it (the
	// collection's MinDocs rule), so every sampled query vectorises.
	df := make(map[string]int)
	for _, d := range in.docs {
		seen := make(map[string]bool)
		for _, tok := range strings.Fields(d.Text) {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	in.topicWords = make([][]string, sc.topics)
	for g, group := range synth.SynonymGroups {
		t := g / sc.concepts
		for _, word := range group {
			if df[word] >= 2 {
				in.topicWords[t] = append(in.topicWords[t], word)
			}
		}
	}
	in.deleteOrder = rand.New(rand.NewSource(mix(seed, streamDeletes))).Perm(sc.docs)
	return in
}

// blendDocs makes each document the first, middle and last third of
// three random topical documents.
func blendDocs(topical []corpus.Document, docLen int, seed int64) []corpus.Document {
	rng := rand.New(rand.NewSource(seed))
	toks := make([][]string, len(topical))
	for i, d := range topical {
		toks[i] = strings.Fields(d.Text)
	}
	third := docLen / 3
	out := make([]corpus.Document, len(topical))
	for j := range out {
		parts := make([]string, 0, docLen)
		for p := 0; p < 3; p++ {
			src := toks[rng.Intn(len(toks))]
			lo, hi := p*third, (p+1)*third
			if p == 2 || hi > len(src) {
				hi = len(src)
			}
			if lo > hi {
				lo = hi
			}
			parts = append(parts, src[lo:hi]...)
		}
		out[j] = corpus.Document{ID: fmt.Sprintf("B%05d", j), Text: strings.Join(parts, " ")}
	}
	return out
}

// queryLen is the token count of every generated query.
const queryLen = 6

// query samples one fresh query: six words of one topic, or three each
// of two topics on the blended corpus. Queries are never replayed.
func (in *inputs) query(rng *rand.Rand) string {
	words := make([]string, queryLen)
	a := rng.Intn(len(in.topicWords))
	b := a
	if in.w.blended {
		b = rng.Intn(len(in.topicWords))
	}
	for i := range words {
		t := a
		if i >= queryLen/2 {
			t = b
		}
		words[i] = in.topicWords[t][rng.Intn(len(in.topicWords[t]))]
	}
	return strings.Join(words, " ")
}

func (in *inputs) queries(n int, stream ...int) []string {
	rng := rand.New(rand.NewSource(mix(in.seed, stream...)))
	out := make([]string, n)
	for i := range out {
		out[i] = in.query(rng)
	}
	return out
}

type opKind uint8

const (
	opSearch opKind = iota
	opBatch
	opPost
	opDelete
	// opCompact is not a request: the client calls Router.Compact() at
	// this script position.
	opCompact
)

// op is one scripted operation, host-independent so scripts hash the
// same on every run.
type op struct {
	kind    opKind
	method  string
	path    string // request URI
	body    string
	queries []string // the queries a search or batch carries
	// sample marks answers kept for full verification after the block.
	sample bool
}

// ops counts the operations the request stands for: a batch counts its
// queries, a compaction is scripted background work and counts nothing.
func (o op) ops() int {
	switch o.kind {
	case opBatch:
		return len(o.queries)
	case opCompact:
		return 0
	}
	return 1
}

func searchOp(q string) op {
	return op{kind: opSearch, method: "GET", queries: []string{q},
		path: "/search?n=" + fmt.Sprint(topN) + "&q=" + url.QueryEscape(q)}
}

func batchOp(qs []string) op {
	body, _ := json.Marshal(struct {
		Queries []string `json:"queries"`
		N       int      `json:"n"`
	}{qs, topN}) // strings and an int cannot fail to marshal
	return op{kind: opBatch, method: "POST", path: "/search/batch", body: string(body), queries: qs}
}

func postOp(d corpus.Document) op {
	body, _ := json.Marshal(struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}{d.ID, d.Text})
	return op{kind: opPost, method: "POST", path: "/documents", body: string(body)}
}

func deleteOp(id string) op {
	return op{kind: opDelete, method: "DELETE", path: "/docs/" + url.PathEscape(id)}
}

// samplesPerScript is how many answers per client and block are kept and
// compared in full after the block.
const samplesPerScript = 16

// script builds client c's operations for block b. Block numbering is
// global per run (0 = warm-up); churn block b posts spare documents
// reserved for (b, c) and deletes the first half of what (b-1, c)
// posted, block -1 being the untimed pool seeding.
func (in *inputs) script(b, c int) []op {
	rng := rand.New(rand.NewSource(mix(in.seed, streamScript, b, c)))
	sc := in.sc
	var out []op
	switch {
	case in.w.churn:
		posts := in.churnPosts(b, c)
		prev := in.churnPosts(b-1, c)
		base := in.deleteOrder[(b*clients+c)*sc.churnRounds:]
		w := 0
		for r := 0; r < sc.churnRounds; r++ {
			if c == 0 && r == sc.churnRounds/2 {
				out = append(out, op{kind: opCompact})
			}
			for i := 0; i < sc.churnReads; i++ {
				out = append(out, searchOp(in.query(rng)))
			}
			for i := 0; i < sc.churnWrites; i++ {
				out = append(out, postOp(posts[w+i]))
			}
			// One base document and (churnWrites-1) documents posted at
			// least a block earlier: the live count stays constant.
			out = append(out, deleteOp(in.docs[base[r]].ID))
			for i := 1; i < sc.churnWrites; i++ {
				out = append(out, deleteOp(prev[w+i].ID))
			}
			w += sc.churnWrites
		}
	case in.w.batch:
		for i := 0; i < sc.batchRequests; i++ {
			qs := make([]string, batchQueries)
			for j := range qs {
				qs[j] = in.query(rng)
			}
			out = append(out, batchOp(qs))
		}
	default:
		n := sc.topicalReads
		if in.w.blended {
			n = sc.scanReads
		}
		for i := 0; i < n; i++ {
			out = append(out, searchOp(in.query(rng)))
		}
	}
	markSamples(out)
	return out
}

// markSamples spreads samplesPerScript verification samples evenly over
// the script's reads.
func markSamples(script []op) {
	reads := 0
	for _, o := range script {
		if o.kind == opSearch || o.kind == opBatch {
			reads++
		}
	}
	stride := reads / samplesPerScript
	if stride == 0 {
		stride = 1
	}
	seen := 0
	for i := range script {
		if k := script[i].kind; k == opSearch || k == opBatch {
			script[i].sample = seen%stride == 0
			seen++
		}
	}
}

// churnPosts is the slice of spare documents client c posts in block b
// (b = -1: the pool seeding before the warm-up block).
func (in *inputs) churnPosts(b, c int) []corpus.Document {
	per := in.sc.churnWritesPerBlock()
	lo := ((b+1)*clients + c) * per
	return in.spare[lo : lo+per]
}

// probeSpare is the tail of the spare pool no churn block reaches: the
// write probes and the fold-in probes draw from it.
func (in *inputs) probeSpare() []corpus.Document {
	return in.spare[len(in.spare)-in.sc.writeProbes-in.sc.probeDocs:]
}

// churnLive is the live document count a churn run must hold from the
// pool seeding on: every block posts exactly as many as it deletes.
func (in *inputs) churnLive() int {
	return in.sc.docs + clients*in.sc.churnWritesPerBlock()
}

// digest hashes the generated inputs of a run (documents, gate queries
// and the scripts of the first blocks) — the identity the determinism
// test pins.
func (in *inputs) digest(blocks int) string {
	h := sha256.New()
	for _, d := range in.docs {
		fmt.Fprintf(h, "%s\x00%s\x00", d.ID, d.Text)
	}
	for _, q := range in.queries(in.sc.gateQueries, streamGate) {
		fmt.Fprintf(h, "%s\x00", q)
	}
	for b := 0; b < blocks; b++ {
		for c := 0; c < clients; c++ {
			for _, o := range in.script(b, c) {
				fmt.Fprintf(h, "%d %s %s %s %v\x00", o.kind, o.method, o.path, o.body, o.sample)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
