// benchmark harness: wall-clock timing is the product.
//lsilint:file-ignore walltime

package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// loadClient is one closed-loop caller: it sends its next request only
// after the previous reply is read, over one kept-alive connection.
type loadClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newLoadClient() *loadClient {
	return &loadClient{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.buf.
func (c *loadClient) do(req *http.Request) (status int, err error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

func buildRequest(base string, o op) (*http.Request, error) {
	var body io.Reader
	if o.body != "" {
		body = strings.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, base+o.path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// buildRequests prepares a script's requests before its block's clock
// starts; a scripted compaction has none.
func buildRequests(base string, script []op) ([]*http.Request, error) {
	reqs := make([]*http.Request, len(script))
	for i, o := range script {
		if o.kind == opCompact {
			continue
		}
		req, err := buildRequest(base, o)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	return reqs, nil
}

// wantStatus is the only status each operation kind may return.
func wantStatus(k opKind) int {
	switch k {
	case opPost:
		return http.StatusCreated
	case opDelete:
		return http.StatusNoContent
	}
	return http.StatusOK
}

var cosineKey = []byte(`"cosine":`)

// quickCheck is the per-answer check cheap enough for the timed loop:
// the right status and, for reads, exactly topN results per query.
func quickCheck(o op, status int, body []byte) error {
	if status != wantStatus(o.kind) {
		return fmt.Errorf("%s %s: status %d, want %d: %s", o.method, o.path, status, wantStatus(o.kind), firstLine(body))
	}
	if o.kind == opSearch || o.kind == opBatch {
		if got, want := bytes.Count(body, cosineKey), topN*len(o.queries); got != want {
			return fmt.Errorf("%s %s: %d results, want %d", o.method, o.path, got, want)
		}
	}
	return nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}

// sampledAnswer is a reply kept for full verification after its block.
type sampledAnswer struct {
	o    op
	body []byte
}

// clientBlock is what one client measured in one block.
type clientBlock struct {
	searchNs []int64 // latency of each search or batch request
	postNs   []int64
	deleteNs []int64
	samples  []sampledAnswer
	ops      int
	failed   int
	full503  int // queue-full refusals
	firstErr error
	// compactNs is the duration of the scripted Router.Compact() call.
	compactNs int64
}

// runScript executes one client's script with its prepared requests.
// after, when set, runs after every read with the op and its
// client-observed interval — the traced block hooks the ladder replay
// there.
func (c *loadClient) runScript(script []op, reqs []*http.Request, compact func() error,
	after func(o op, start, end time.Time)) clientBlock {
	var cb clientBlock
	cb.searchNs = make([]int64, 0, len(script))
	fail := func(err error) {
		cb.failed++
		if cb.firstErr == nil {
			cb.firstErr = err
		}
	}
	for i, o := range script {
		if o.kind == opCompact {
			start := time.Now()
			if err := compact(); err != nil {
				fail(fmt.Errorf("scripted compaction: %w", err))
			}
			cb.compactNs += int64(time.Since(start))
			continue
		}
		cb.ops += o.ops()
		start := time.Now()
		status, err := c.do(reqs[i])
		end := time.Now()
		if err == nil {
			err = quickCheck(o, status, c.buf.Bytes())
		}
		if err != nil {
			// A failed operation misses every latency figure.
			if status == http.StatusServiceUnavailable {
				cb.full503++
			}
			fail(err)
			continue
		}
		ns := int64(end.Sub(start))
		switch o.kind {
		case opSearch, opBatch:
			cb.searchNs = append(cb.searchNs, ns)
			if o.sample {
				cb.samples = append(cb.samples, sampledAnswer{o, append([]byte(nil), c.buf.Bytes()...)})
			}
			if after != nil {
				after(o, start, end)
			}
		case opPost:
			cb.postNs = append(cb.postNs, ns)
		case opDelete:
			cb.deleteNs = append(cb.deleteNs, ns)
		}
	}
	return cb
}

// blockResult is one block over all clients.
type blockResult struct {
	wall    time.Duration
	clients []clientBlock
	usage   usageDelta
}

func (b *blockResult) ops() int {
	n := 0
	for _, c := range b.clients {
		n += c.ops
	}
	return n
}

// searchMs returns every search latency of the block in milliseconds,
// sorted.
func (b *blockResult) searchMs() []float64 {
	var out []float64
	for _, c := range b.clients {
		for _, ns := range c.searchNs {
			out = append(out, float64(ns)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (b *blockResult) summary() blockSummary {
	lat := b.searchMs()
	tailP := tailPercentile(len(lat))
	p50 := math.Inf(1)
	for _, c := range b.clients {
		p50 = math.Min(p50, quietMedian(c.searchNs, medianWindow))
	}
	return blockSummary{
		wallS:  b.wall.Seconds(),
		ops:    b.ops(),
		p50Ms:  p50,
		tailMs: percentile(lat, tailP),
		tailP:  tailP,
	}
}

// runBlock runs one script per client concurrently and times the whole.
func runBlock(cs []*loadClient, base string, scripts [][]op, compact func() error) (blockResult, error) {
	res := blockResult{clients: make([]clientBlock, len(scripts))}
	reqs := make([][]*http.Request, len(scripts))
	for i, script := range scripts {
		var err error
		if reqs[i], err = buildRequests(base, script); err != nil {
			return res, err
		}
	}
	var wg sync.WaitGroup
	settle()
	before := readUsage()
	start := time.Now()
	for i := range scripts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res.clients[i] = cs[i].runScript(scripts[i], reqs[i], compact, nil)
		}(i)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.usage = readUsage().sub(before)
	return res, nil
}
