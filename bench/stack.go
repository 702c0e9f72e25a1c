// benchmark harness: wall-clock timing is the product.
//lsilint:file-ignore walltime

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapfile"
	"repro/internal/text"
	"repro/internal/weight"
)

// parseOpts is the parsing rule lsiserver indexes a directory with.
var parseOpts = text.ParseOptions{MinDocs: 2}

func modelConfig(sc scale) core.Config {
	return core.Config{K: sc.k, Scheme: weight.LogEntropy}
}

// engineConfig is the per-shard pipeline every stack runs: screening and
// IVF on (the defaults), a queue deep enough that two clients never see
// backpressure, and no compaction monitor — compaction is scripted, so
// background work lands at the same place in every block.
func engineConfig() engine.Config {
	return engine.Config{QueueSize: 1024, CompactThreshold: 0}
}

func serverOptions() server.Options {
	return server.Options{Shards: 1, Engine: engineConfig(), Logf: func(string, ...any) {}}
}

// stack is one served instance of the system: the real server behind a
// loopback listener in this process.
type stack struct {
	srv  *server.Server
	http *http.Server
	base string // "http://127.0.0.1:port"
	done chan error
	// snap backs a restored router's arrays; nil on a built stack.
	snap *snapfile.File
}

// serve puts srv behind a loopback listener.
func serve(srv *server.Server) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{
		srv:  srv,
		http: &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { st.done <- st.http.Serve(ln) }()
	return st, nil
}

// drainCtx bounds every shutdown of a server, router or engine here.
func drainCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// close shuts the listener, drains the pipelines and waits for the serve
// goroutine.
func (st *stack) close() error {
	ctx, cancel := drainCtx()
	defer cancel()
	err := st.http.Shutdown(ctx)
	if serr := <-st.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := st.srv.Close(ctx); err == nil {
		err = cerr
	}
	if st.snap != nil {
		if cerr := st.snap.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (st *stack) router() *shard.Router { return st.srv.Router() }

// buildStack is the set-up path lsiserver runs: documents in memory →
// collection → model → serving tier → listener.
func buildStack(docs []corpus.Document, sc scale) (*stack, error) {
	coll := corpus.New(docs, parseOpts)
	model, err := core.BuildCollection(coll, modelConfig(sc))
	if err != nil {
		return nil, err
	}
	srv, err := server.NewWithOptions(coll, model, serverOptions())
	if err != nil {
		return nil, err
	}
	return serve(srv)
}

// restoreStack is the -load-model path: snapshot file → router → server
// → listener.
func restoreStack(path string) (*stack, error) {
	router, f, err := shard.Restore(path, shard.Config{Engine: engineConfig()}, false)
	if err != nil {
		return nil, err
	}
	st, err := serve(server.NewFromRouter(router, serverOptions()))
	if err != nil {
		ctx, cancel := drainCtx()
		defer cancel()
		_ = router.Close(ctx) // the listen error is the one to report
		_ = f.Close()
		return nil, err
	}
	st.snap = f
	return st, nil
}
