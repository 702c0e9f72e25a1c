package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rank"
	"repro/internal/server"
	"repro/internal/shard"
)

// oracle answers queries with the exact float64 engine over a fixed
// model: the reference every served answer is compared against.
type oracle struct {
	coll  *corpus.Collection
	model *core.Model
	eng   *rank.Engine
	docs  []corpus.Document
	dead  rank.Skip
}

// snapshotOracle builds the oracle over the router's current snapshot
// (one shard). It stays valid while that snapshot is the one serving.
func snapshotOracle(r *shard.Router) *oracle {
	snap := r.ShardSnapshot(0)
	return &oracle{coll: r.Collection(), model: snap.Model,
		eng: rank.NewEngineExact(snap.Model.V), docs: snap.Docs, dead: snap.Dead}
}

// freshOracle builds a new model from docs — what a full recompute
// (§3.4) of the final live documents would serve.
func freshOracle(docs []corpus.Document, sc scale) (*oracle, error) {
	coll := corpus.New(docs, parseOpts)
	model, err := core.BuildCollection(coll, modelConfig(sc))
	if err != nil {
		return nil, err
	}
	return &oracle{coll: coll, model: model, eng: rank.NewEngineExact(model.V), docs: docs}, nil
}

func (o *oracle) top(q string) []rank.Item {
	return o.eng.TopKSkip(o.model.ProjectQuery(o.coll.QueryVector(q)), topN, o.dead)
}

// decodeAnswers parses a /search or /search/batch body into one result
// list per query.
func decodeAnswers(o op, body []byte) ([][]server.SearchResult, error) {
	if o.kind == opBatch {
		var out [][]server.SearchResult
		err := json.Unmarshal(body, &out)
		return out, err
	}
	var one []server.SearchResult
	err := json.Unmarshal(body, &one)
	return [][]server.SearchResult{one}, err
}

// checkExact requires the served lists to equal the oracle's: same
// documents in the same order with bit-identical cosines.
func (o *oracle) checkExact(p op, body []byte) error {
	lists, err := decodeAnswers(p, body)
	if err != nil {
		return fmt.Errorf("%s: %w", p.path, err)
	}
	if len(lists) != len(p.queries) {
		return fmt.Errorf("%s: %d result lists for %d queries", p.path, len(lists), len(p.queries))
	}
	for i, got := range lists {
		want := o.top(p.queries[i])
		if len(got) != len(want) {
			return fmt.Errorf("%q: %d results, oracle has %d", p.queries[i], len(got), len(want))
		}
		for j := range got {
			if id := o.docs[want[j].Doc].ID; got[j].ID != id ||
				math.Float64bits(got[j].Cosine) != math.Float64bits(want[j].Score) {
				return fmt.Errorf("%q rank %d: served %s %v, oracle %s %v",
					p.queries[i], j, got[j].ID, got[j].Cosine, id, want[j].Score)
			}
		}
	}
	return nil
}

// checkShape is the check for answers whose snapshot is gone by the time
// they are verified (churn): well-formed, full, ranked, no duplicates.
func checkShape(p op, body []byte) error {
	lists, err := decodeAnswers(p, body)
	if err != nil {
		return fmt.Errorf("%s: %w", p.path, err)
	}
	if len(lists) != len(p.queries) {
		return fmt.Errorf("%s: %d result lists for %d queries", p.path, len(lists), len(p.queries))
	}
	for i, got := range lists {
		if len(got) != topN {
			return fmt.Errorf("%q: %d results, want %d", p.queries[i], len(got), topN)
		}
		seen := make(map[string]bool, len(got))
		for j, r := range got {
			if seen[r.ID] {
				return fmt.Errorf("%q: document %s ranked twice", p.queries[i], r.ID)
			}
			seen[r.ID] = true
			if j > 0 && r.Cosine > got[j-1].Cosine {
				return fmt.Errorf("%q: rank %d cosine %v above rank %d's %v", p.queries[i], j, r.Cosine, j-1, got[j-1].Cosine)
			}
		}
	}
	return nil
}

// overlap is the share of the oracle's top documents (by ID) the served
// list also holds.
func (o *oracle) overlap(q string, got []server.SearchResult) float64 {
	want := o.top(q)
	if len(want) == 0 {
		return 1
	}
	served := make(map[string]bool, len(got))
	for _, r := range got {
		served[r.ID] = true
	}
	hit := 0
	for _, it := range want {
		if served[o.docs[it.Doc].ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
