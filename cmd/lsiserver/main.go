// Command lsiserver serves an LSI index over HTTP — the paper's NETLIB
// fuzzy-search deployment shape (§5.4). It indexes a directory of .txt
// files and exposes /search, /search/batch, /terms, /documents, /stats
// and /metrics, served from immutable snapshots so reads never block on
// fold-ins or compactions (see docs/SERVING.md).
//
// Usage:
//
//	lsiserver -dir ./docs -k 100 -addr :8080
//
// then:
//
//	curl 'localhost:8080/search?q=sparse+svd&n=5'
//	curl 'localhost:8080/terms?w=matrix'
//	curl -X POST -d '{"id":"new1","text":"..."}' localhost:8080/documents
//	curl -X DELETE localhost:8080/docs/new1
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops, the
// fold-in queue drains, and every acknowledged document is part of the
// final state before the process exits. With -save-model the drained,
// compacted state is persisted to a snapshot container; a later
//
//	lsiserver -load-model state.lsnp -addr :8080
//
// restores it without re-reading -dir, recomputing the SVD or re-running
// k-means: the factors attach memory-mapped (cold rows page in on first
// touch), and the scoring tiers are derived from them under this
// process's tier flags, as a build would.
//
//lsilint:file-ignore walltime — server lifecycle timeouts are wall-clock by nature
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/text"
	"repro/internal/weight"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsiserver: ")
	dir := flag.String("dir", "", "directory of *.txt files to index")
	k := flag.Int("k", 100, "number of LSI factors")
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 1,
		"engine shards behind the scatter-gather tier; results are byte-identical for every value")
	queueSize := flag.Int("queue", 256, "per-shard fold-in queue capacity (full queue => 503 + Retry-After)")
	batchTick := flag.Duration("batch-tick", 2*time.Millisecond, "fold-in batching window")
	compactAt := flag.Float64("compact-threshold", 0.05,
		"doc-orthogonality loss triggering SVD-update compaction; 0 disables")
	compactStrategy := flag.String("compact-strategy", "obrien",
		"SVD-update algorithm for compaction: obrien (exact dense inner SVD) or gk (Golub-Kahan projections, faster on large pending batches)")
	gkRank := flag.Int("gk-rank", 0,
		"Golub-Kahan projection rank for -compact-strategy=gk; 0 picks the default")
	noScreen := flag.Bool("no-screen", false,
		"disable the float32 screening mirror; every query runs the pure float64 path (identical results, more memory traffic)")
	noIVF := flag.Bool("no-ivf", false,
		"disable the cluster index over the screening mirror; queries screen every row (identical results, no cluster pruning)")
	ivfClusters := flag.Int("ivf-clusters", 0,
		"cluster-index cell count; 0 picks sqrt(docs)")
	nprobe := flag.Int("nprobe", 0,
		"approximate mode: max IVF cells scanned per query; 0 keeps queries exact (certified pruning only)")
	ivfRebuildFrac := flag.Float64("ivf-rebuild-frac", 0.25,
		"rows k-means has not seen (tail plus placed), as a share of n, triggering a background cluster-index rebuild; negative disables size-triggered rebuilds")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline; 0 disables")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for draining queued fold-ins")
	loadModel := flag.String("load-model", "",
		"start from a model snapshot (.lsnp) instead of indexing -dir: no SVD rebuild and no k-means, factors attach memory-mapped, scoring tiers are derived under this process's tier flags")
	saveModel := flag.String("save-model", "",
		"write a model snapshot here during graceful shutdown (after the fold-in queues drain and a final compaction)")
	verifyModel := flag.Bool("verify-model", false,
		"CRC-check every snapshot payload at -load-model time (reads the whole file; default trusts the O(1) header+table checksums plus structural validation)")
	flag.Parse()
	if *dir == "" && *loadModel == "" {
		log.Fatal("-dir or -load-model is required")
	}
	strategy, err := core.ParseUpdateStrategy(*compactStrategy)
	if err != nil {
		log.Fatal(err)
	}
	engCfg := engine.Config{
		QueueSize:          *queueSize,
		BatchTick:          *batchTick,
		CompactThreshold:   *compactAt,
		DisableScreening:   *noScreen,
		DisableIVF:         *noIVF,
		IVFClusters:        *ivfClusters,
		IVFNProbe:          *nprobe,
		IVFRebuildFraction: *ivfRebuildFrac,
		CompactionStrategy: strategy,
		GKRank:             *gkRank,
		Logf:               log.Printf,
	}
	httpOpts := server.Options{
		Shards:         *shards,
		Engine:         engCfg,
		RequestTimeout: *reqTimeout,
		Logf:           log.Printf,
	}

	var srv *server.Server
	if *loadModel != "" {
		start := time.Now()
		router, snapFile, err := shard.Restore(*loadModel, shard.Config{
			Engine: engCfg,
			Logf:   log.Printf,
		}, *verifyModel)
		if err != nil {
			log.Fatal(err)
		}
		// The mapping backs the serving tier for the process lifetime;
		// the OS reclaims it at exit.
		_ = snapFile
		srv = server.NewFromRouter(router, httpOpts)
		st := router.Stats()
		log.Printf("restored %d docs, %d terms across %d shard(s) from %s in %s (verify=%v); listening on %s",
			st.Documents, router.Collection().Terms(), router.Shards(), *loadModel,
			time.Since(start).Round(time.Millisecond), *verifyModel, *addr)
	} else {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".txt") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		var docs []corpus.Document
		for _, name := range names {
			b, err := os.ReadFile(filepath.Join(*dir, name))
			if err != nil {
				log.Fatal(err)
			}
			docs = append(docs, corpus.Document{ID: name, Text: string(b)})
		}
		if len(docs) == 0 {
			log.Fatalf("no .txt files under %s", *dir)
		}

		start := time.Now()
		coll := corpus.New(docs, text.ParseOptions{MinDocs: 2})
		model, err := core.BuildCollection(coll, core.Config{K: *k, Scheme: weight.LogEntropy})
		if err != nil {
			log.Fatal(err)
		}
		srv, err = server.NewWithOptions(coll, model, httpOpts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("indexed %d docs, %d terms, k=%d, %d shard(s) in %s; listening on %s",
			coll.Size(), coll.Terms(), model.K, srv.Router().Shards(),
			time.Since(start).Round(time.Millisecond), *addr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down: draining in-flight requests and queued fold-ins")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if *saveModel != "" {
		// Listeners are closed and in-flight requests done, so the router
		// is quiesced — the state SaveSnapshot requires. It runs a final
		// coordinated compaction, then persists; Close afterwards only
		// drains the (now empty) queues.
		start := time.Now()
		if err := srv.Router().SaveSnapshot(*saveModel); err != nil {
			log.Printf("save-model: %v", err)
			os.Exit(1)
		}
		log.Printf("saved model snapshot to %s in %s", *saveModel, time.Since(start).Round(time.Millisecond))
	}
	if err := srv.Close(shutCtx); err != nil {
		log.Printf("engine drain: %v", err)
		os.Exit(1)
	}
	st := srv.Router().Stats()
	log.Printf("drained: %d documents across %d shard(s) (generations %v)", st.Documents, st.Shards, st.Generations)
}
