GO ?= go

.PHONY: check check-full build test test-portable race race-hot stress vet fmt-check lint lint-tests loc bench-tables bench-e2e bench-compare

# check is the fast pre-commit loop: formatting, vet, build, tests, the
# portable-kernel build, the race detector on the hot parallel packages
# only, and the project linter. Run it on every change.
check: fmt-check vet build test test-portable race-hot lint

# check-full is the slow full sweep — the race detector over every
# package plus everything in check and a double pass over the serving
# pipeline. Run it before merging, or whenever concurrency-adjacent code
# (engine, server, rank, lanczos, sparse) changed.
check-full: vet build lint lint-tests stress
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any file (the benchmark's build
# cache under .bench_build/ is not ours to format).
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
		if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# lint runs lsilint, the in-tree static analyzer (internal/lint): the
# determinism, lock-discipline, and //lsilint:noalloc hot-path checks
# described in docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/lsilint ./...

# lint-tests re-runs the interprocedural concurrency checks with the
# stress/test files loaded too (-tests), over the packages whose suites
# hammer shared state. Only the call-graph checks run here: the
# per-package determinism checks are serving-path invariants and would
# drown in benchmark timing code.
lint-tests:
	$(GO) run ./cmd/lsilint -tests -checks guardedby,snapshotsafe,noalloctrans \
		./internal/engine/... ./internal/shard/... ./internal/server/... ./internal/rank/...

# loc prints non-test Go lines per package outside bench/, total last —
# the number simplification rounds are judged by — and then the
# hand-written assembly on a row of its own, outside that total.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' \
		-not -path './.bench_build/*' -not -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
	@find . -name '*.s' -not -path './.bench_build/*' | xargs cat | wc -l | awk '{ printf "%7d assembly (*.s)\n", $$1 }'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-portable keeps the build without internal/dense's AVX2 assembly
# honest: the kernel packages' tests under -tags purego (the portable
# loops are the whole kernel there, as on every non-amd64 target), and a
# cross-architecture vet so no file assumes the assembly exists.
test-portable:
	$(GO) test -tags purego ./internal/dense/... ./internal/rank/...
	GOARCH=arm64 $(GO) vet ./...

race:
	$(GO) test -race ./...

# race-hot runs the race detector on the packages with parallel kernels and
# shared-state fast paths — the places a data race would actually live —
# keeping `make check` much faster than a full -race sweep. internal/rank
# is included for the screening-mirror Extend chain (shared-tail claims
# racing against sibling copies).
race-hot:
	$(GO) test -race ./internal/lanczos/... ./internal/sparse/... ./internal/rank/...

# stress runs the snapshot-isolation stress suites (readers hammering
# immutable snapshots while the updater folds in and compacts, across
# engine, the sharded scatter-gather tier, and the HTTP server) under
# the race detector, twice, so scheduling-dependent interleavings get a
# second roll of the dice.
stress:
	$(GO) test -race -count=2 ./internal/engine/... ./internal/shard/... ./internal/server/...

# bench-tables runs the per-layer benchmark tables — what bench-e2e cannot
# separate — at GOMAXPROCS 1 and 2, six times each; read the best of six
# per case (≈ 25 min):
#   rank   BenchmarkTopKTable: {exact, float32-first, int8-first} ×
#          {flat, ivf} × {single, batch of 16} at 12 000×64 and 50 000×100 —
#          which first tier is fastest, and whether the span fan-out of the
#          un-indexed range still pays (flat single at -cpu 2 vs 1).
#          BenchmarkIVFMaintain: what a compaction spends on its cluster
#          index, k-means from scratch vs carrying and re-certifying the
#          old one, at the same two sizes.
#   shard  BenchmarkRouterShards: latency, rows/query and cells/query at
#          1/2/4 shards over the topical corpus, parity-gated.
#   core   BenchmarkCompactionStrategy: O'Brien vs Golub–Kahan update time
#          with overlap@10, at two corpus sizes.
#          BenchmarkFoldIn: one-document fold-ins along a SharedClone chain
#          at 3 000 and 12 000 docs (-benchmem) — the publish cost, which
#          should not grow with n.
bench-tables:
	$(GO) test -run '^$$' -bench 'TopKTable|IVFMaintain|RouterShards|CompactionStrategy|FoldIn' -benchmem -cpu 1,2 -count 6 \
		./internal/rank ./internal/shard ./internal/core

# bench-e2e runs the repository's benchmark (bench/README.md) — the four
# workloads BENCHMARK.json names, end-to-end metrics only — appending one
# result line per workload to BENCH_OUT. bench-compare applies the
# manifest's bounds to two such result files: make bench-compare A=… B=…
SEED ?= 1
BENCH_OUT ?= bench/out/e2e.jsonl
bench-e2e:
	for w in topical-search blended-scan blended-batch churn-mixed; do \
		bash bench/run.sh --workload $$w --seed $(SEED) --seconds 10 --trace 0 --out $(BENCH_OUT) || exit 1; \
	done

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)
