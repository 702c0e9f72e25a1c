package rank

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dense"
)

const (
	benchDocs = 50000
	benchDim  = 100
	// benchBatch is the batch size of the table's batch column — what the
	// repository benchmark's blended-batch workload posts per request.
	benchBatch = 16
)

// benchCase is one collection of the table: isotropic rows (cell bounds
// cannot prune, so an index costs its bookkeeping and buys nothing — the
// worst case for the scan) and benchBatch queries.
type benchCase struct {
	docs    *dense.Matrix
	queries *dense.Matrix
	engines map[string]*Engine
}

var benchCases = map[string]*benchCase{}

// benchCollection builds (once per process; -count re-enters the
// benchmark function) the collection and every engine of the table
// through public constructors only. Exact engines have no "ivf" row:
// BuildIVF returns an exact-only engine unchanged.
func benchCollection(b *testing.B, rows, dim int) *benchCase {
	b.Helper()
	name := fmt.Sprintf("%dx%d", rows, dim)
	if c := benchCases[name]; c != nil {
		return c
	}
	rng := rand.New(rand.NewSource(41))
	c := &benchCase{docs: randomMatrix(rng, rows, dim), queries: randomMatrix(rng, benchBatch, dim)}
	f32, i8 := newEngineF32(c.docs), NewEngine(c.docs)
	c.engines = map[string]*Engine{
		"exact/flat": NewEngineExact(c.docs),
		"f32/flat":   f32,
		"f32/ivf":    f32.BuildIVF(IVFConfig{}),
		"int8/flat":  i8,
		"int8/ivf":   i8.BuildIVF(IVFConfig{}),
	}
	benchCases[name] = c
	return c
}

// BenchmarkTopKTable is the first-tier × index × entry-point table
// `make bench-tables` runs at GOMAXPROCS 1 and 2: {exact, float32-first,
// int8-first} × {flat, ivf} × {single, batch of 16} at the repository
// benchmark's shape (12 000×64) and at 50 000×100. Single cases cycle
// through the batch's queries, so ns/op there and ns/query on the batch
// cases measure the same work.
func BenchmarkTopKTable(b *testing.B) {
	for _, size := range []struct{ rows, dim int }{{12000, 64}, {benchDocs, benchDim}} {
		for _, eng := range []string{"exact/flat", "f32/flat", "f32/ivf", "int8/flat", "int8/ivf"} {
			prefix := fmt.Sprintf("%dx%d/%s", size.rows, size.dim, eng)
			b.Run(prefix+"/single", func(b *testing.B) {
				c := benchCollection(b, size.rows, size.dim)
				e := c.engines[eng]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(e.TopK(c.queries.Row(i%benchBatch), 10)) != 10 {
						b.Fatal()
					}
				}
			})
			b.Run(prefix+"/batch", func(b *testing.B) {
				c := benchCollection(b, size.rows, size.dim)
				e := c.engines[eng]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(e.TopKBatch(c.queries, 10)) != benchBatch {
						b.Fatal()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/query")
			})
		}
	}
}

var benchSink64 float64
var benchSink32 float32

func BenchmarkScanDot64(b *testing.B) {
	c := benchCollection(b, benchDocs, benchDim)
	exact, q := c.engines["exact/flat"], c.queries.Row(0)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var s float64
		for i := 0; i < benchDocs; i++ {
			s += dense.Dot(q, exact.docs.Row(i))
		}
		benchSink64 = s
	}
}

func BenchmarkScanDotF32(b *testing.B) {
	c := benchCollection(b, benchDocs, benchDim)
	screened := c.engines["int8/flat"]
	q32 := make([]float32, benchDim)
	dense.ConvertF32(q32, c.queries.Row(0))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var s float32
		for i := 0; i < benchDocs; i++ {
			s += dense.DotF32(q32, screened.mir.docs.Row(i))
		}
		benchSink32 = s
	}
}

// BenchmarkIVFMaintain times what a compaction spends on the cluster
// index of the engine it publishes: kmeans re-clusters the compacted rows
// from scratch (BuildIVF), carry maps the old index through the compaction
// remap and re-certifies it (CarryIVF). The source engine indexes 90 % of
// its rows and carries the last 10 % as an unclustered tail; the
// compaction drops every 50th row and moves the rest by a signed column
// permutation plus noise.
func BenchmarkIVFMaintain(b *testing.B) {
	for _, size := range []struct{ rows, dim int }{{12000, 64}, {benchDocs, benchDim}} {
		var src, dst *Engine
		var newRow []int
		setup := func() {
			if src != nil {
				return
			}
			rng := rand.New(rand.NewSource(43))
			raw := randomMatrix(rng, size.rows, size.dim)
			head := size.rows * 9 / 10
			src = NewEngine(raw.Slice(0, head, 0, size.dim)).BuildIVF(IVFConfig{}).
				Extend(raw.Slice(head, size.rows, 0, size.dim))
			var moved *dense.Matrix
			moved, newRow = compactedCopy(rng, raw, func(i int) bool { return i%50 == 0 }, 0)
			dst = NewEngine(moved)
		}
		prefix := fmt.Sprintf("%dx%d/", size.rows, size.dim)
		b.Run(prefix+"kmeans", func(b *testing.B) {
			setup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst.BuildIVF(IVFConfig{}) == dst {
					b.Fatal("no index built")
				}
			}
		})
		b.Run(prefix+"carry", func(b *testing.B) {
			setup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst.CarryIVF(src, newRow, 0) == dst {
					b.Fatal("no index carried")
				}
			}
		})
	}
}
