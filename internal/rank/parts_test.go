package rank

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPartsRoundTrip pins the restore contract: an engine built from the
// raw vectors, with the original's cell membership attached through
// IVFFromParts, carries the original's tiers and index bit for bit and
// answers every query byte-identically — flat, with an IVF index, and
// with an index covering only a row prefix (rows appended after the
// build form the unclustered tail).
func TestPartsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4041))
	for _, tc := range []struct {
		name    string
		n, tail int
		ivf     bool
	}{
		{"flat", 400, 0, false},
		{"ivf", 1200, 0, true},
		{"ivf-prefix", 1200, 150, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := clusteredMatrix(rng, tc.n, 12, 7, 0.08)
			// A zero row and duplicate rows to exercise ties and scale-0.
			copy(raw.Row(1), make([]float64, 12))
			copy(raw.Row(2), raw.Row(3))
			head := tc.n - tc.tail
			orig := NewEngine(raw.Slice(0, head, 0, 12))
			if tc.ivf {
				orig = orig.BuildIVF(IVFConfig{MinRows: 1, NProbe: 2})
			}
			if tc.tail > 0 {
				orig = orig.Extend(raw.Slice(head, tc.n, 0, 12))
			}

			restored := NewEngine(raw)
			if p := orig.Parts().IVF; p != nil {
				var err error
				if restored, err = restored.IVFFromParts(p, IVFConfig{MinRows: 1, NProbe: 2}); err != nil {
					t.Fatalf("IVFFromParts: %v", err)
				}
			}
			if (restored.ivf != nil) != tc.ivf {
				t.Fatalf("restored index present = %v, want %v", restored.ivf != nil, tc.ivf)
			}
			partsBitEqual(t, tc.name, restored, orig)
			restored.checkMirror() // panics on any mirror drift

			skip := NewSkip(tc.n)
			skip.Set(5)
			skip.Set(17)
			for trial := 0; trial < 60; trial++ {
				q := make([]float64, 12)
				for j := range q {
					q[j] = rng.NormFloat64()
				}
				k := 1 + rng.Intn(20)
				want := orig.TopKSkip(q, k, skip)
				got := restored.TopKSkip(q, k, skip)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("k=%d trial=%d: restored engine diverged\nwant %v\ngot  %v",
						k, trial, want, got)
				}
			}
		})
	}
}

// TestIVFFromPartsFollowsConfig: the attach takes the probe budget and
// the build floor from its config, as BuildIVF does, and leaves an
// exact-only engine without an index.
func TestIVFFromPartsFollowsConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	raw := clusteredMatrix(rng, 500, 8, 5, 0.1)
	p := NewEngine(raw).BuildIVF(IVFConfig{MinRows: 1}).Parts().IVF
	if got, err := NewEngine(raw).IVFFromParts(p, IVFConfig{MinRows: 1, NProbe: 3}); err != nil || got.nprobe() != 3 {
		t.Fatalf("probe budget not taken from the config: nprobe %d, %v", got.nprobe(), err)
	}
	if got, err := NewEngine(raw).IVFFromParts(p, IVFConfig{MinRows: 501}); err != nil || got.ivf != nil {
		t.Fatalf("index attached below the build floor (%v)", err)
	}
	if got, err := NewEngineExact(raw).IVFFromParts(p, IVFConfig{MinRows: 1}); err != nil || got.ivf != nil {
		t.Fatalf("index attached to an exact-only engine (%v)", err)
	}
}

// TestPartsRejectsCorrupt pins the membership validation: a mangled
// partition must fail IVFFromParts loudly, never build a silently wrong
// index — and it is checked even where no index would be attached.
func TestPartsRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	raw := clusteredMatrix(rng, 600, 10, 5, 0.1)
	orig := NewEngine(raw).BuildIVF(IVFConfig{MinRows: 1})

	mangle := []struct {
		name string
		f    func(p *IVFParts)
	}{
		{"rows-wrong", func(p *IVFParts) { p.Rows++ }},
		{"ivf-dim", func(p *IVFParts) { p.Dim++ }},
		{"ivf-member-dup", func(p *IVFParts) { p.Members[0] = p.Members[1] }},
		{"ivf-member-oob", func(p *IVFParts) { p.Members[0] = int32(p.Rows) }},
		{"ivf-member-neg", func(p *IVFParts) { p.Members[0] = -1 }},
		{"ivf-count-over", func(p *IVFParts) { p.MemberCounts[0]++ }},
		{"ivf-count-under", func(p *IVFParts) { p.MemberCounts[0]-- }},
	}
	// Each mangle works on its own copy of the membership.
	clone := func() *IVFParts {
		p := *orig.Parts().IVF
		p.MemberCounts = append([]int32(nil), p.MemberCounts...)
		p.Members = append([]int32(nil), p.Members...)
		return &p
	}
	for _, m := range mangle {
		t.Run(m.name, func(t *testing.T) {
			p := clone()
			m.f(p)
			for _, e := range []*Engine{NewEngine(raw), NewEngineExact(raw)} {
				if _, err := e.IVFFromParts(p, IVFConfig{MinRows: 1}); err == nil {
					t.Fatalf("corruption %q accepted (screening %v)", m.name, e.Screening())
				}
			}
		})
	}
	// And the unmangled control still loads.
	if _, err := NewEngine(raw).IVFFromParts(orig.Parts().IVF, IVFConfig{MinRows: 1}); err != nil {
		t.Fatalf("control failed: %v", err)
	}
}
