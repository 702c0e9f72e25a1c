package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapfile"
	"repro/internal/weight"
)

// writeModelFile writes m alone, unprefixed, as a snapshot container.
func writeModelFile(t *testing.T, path string, m *Model) {
	t.Helper()
	sections, err := m.SnapshotSections("")
	if err != nil {
		t.Fatal(err)
	}
	if err := snapfile.Write(path, sections); err != nil {
		t.Fatal(err)
	}
}

// openModelFile maps a container and attaches its unprefixed model over
// the mapping — the path a restore takes for each shard — after an
// optional full CRC pass.
func openModelFile(path string, verify bool) (*Model, *snapfile.File, error) {
	f, err := snapfile.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if verify {
		if err := f.VerifyAll(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	m, err := ModelFromSnapshot(f, "")
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return m, f, nil
}

// TestSnapshotFileRoundTrip pins the mmap-format round trip: a model
// written with snapfile.Write and reopened through snapfile.Open and
// ModelFromSnapshot (with and without the full-verify pass) is
// bit-identical in every factor and behaviourally identical on queries.
func TestSnapshotFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomCounts(rng, 30, 18, 0.3)
	m, err := Build(a, Config{K: 6, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.lsnp")
	writeModelFile(t, path, m)
	for _, verify := range []bool{false, true} {
		got, f, err := openModelFile(path, verify)
		if err != nil {
			t.Fatalf("openModelFile(verify=%v): %v", verify, err)
		}
		if got.K != m.K || got.NumTerms() != m.NumTerms() || got.NumDocs() != m.NumDocs() {
			t.Fatal("shape mismatch after round trip")
		}
		if got.Scheme != m.Scheme {
			t.Fatal("scheme mismatch")
		}
		if got.FoldedDocs() != m.FoldedDocs() || got.FoldedTerms() != m.FoldedTerms() {
			t.Fatal("SVD provenance counters lost")
		}
		for i := range m.S {
			if got.S[i] != m.S[i] {
				t.Fatal("singular values differ")
			}
		}
		for i := range m.global {
			if got.global[i] != m.global[i] {
				t.Fatal("global weights differ")
			}
		}
		if !got.U.Equal(m.U, 0) || !got.V.Equal(m.V, 0) {
			t.Fatal("factors differ")
		}
		raw := make([]float64, 30)
		raw[2], raw[9], raw[17] = 1, 3, 2
		r1, r2 := m.Rank(raw), got.Rank(raw)
		for i := range r1 {
			if r1[i].Doc != r2[i].Doc || math.Abs(r1[i].Score-r2[i].Score) > 1e-15 {
				t.Fatalf("rankings diverge at %d", i)
			}
		}
		f.Close()
	}
}

// TestSnapshotSectionsPrefixed pins multi-model containers: two models
// under distinct prefixes restore independently from one file.
func TestSnapshotSectionsPrefixed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m0, err := Build(randomCounts(rng, 22, 12, 0.4), Config{K: 4, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Build(randomCounts(rng, 22, 9, 0.4), Config{K: 3, Scheme: weight.Raw})
	if err != nil {
		t.Fatal(err)
	}
	s0, err := m0.SnapshotSections("s0/")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m1.SnapshotSections("s1/")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shards.lsnp")
	if err := snapfile.Write(path, append(s0, s1...)); err != nil {
		t.Fatal(err)
	}
	f, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g0, err := ModelFromSnapshot(f, "s0/")
	if err != nil {
		t.Fatalf("shard 0: %v", err)
	}
	g1, err := ModelFromSnapshot(f, "s1/")
	if err != nil {
		t.Fatalf("shard 1: %v", err)
	}
	if !g0.V.Equal(m0.V, 0) || !g1.V.Equal(m1.V, 0) || g0.Scheme == g1.Scheme {
		t.Fatal("prefixed models not independent")
	}
}

// TestSnapshotRejectsCorruptHeader pins load-time validation: an
// inflated dimension in the JSON header must fail before any
// allocation sized from it.
func TestSnapshotRejectsCorruptHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, err := Build(randomCounts(rng, 20, 10, 0.4), Config{K: 4, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	sections, err := m.SnapshotSections("")
	if err != nil {
		t.Fatal(err)
	}
	sections[0].Data = []byte(`{"k":4,"terms":99999999999,"docs":10,"nGlobal":20,"local":0,"global":2}`)
	path := filepath.Join(t.TempDir(), "bad.lsnp")
	if err := snapfile.Write(path, sections); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openModelFile(path, false); err == nil {
		t.Fatal("oversized header accepted")
	}
}

// encodeModel is the in-memory form of writeModelFile.
func encodeModel(t *testing.T, m *Model) []byte {
	t.Helper()
	sections, err := m.SnapshotSections("")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapfile.Encode(sections)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// readModel decodes a container image back into a model.
func readModel(blob []byte) (*Model, error) {
	f, err := snapfile.OpenBytes(blob)
	if err != nil {
		return nil, err
	}
	if err := f.VerifyAll(); err != nil {
		return nil, err
	}
	return ModelFromSnapshot(f, "")
}

// TestModelRoundTrip pins the in-memory round trip (Encode → OpenBytes),
// the path the library's Read takes: no file, no mapping, same bits.
func TestModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomCounts(rng, 25, 15, 0.3)
	m, err := Build(a, Config{K: 5, Scheme: weight.LogEntropy})
	if err != nil {
		t.Fatal(err)
	}
	got, err := readModel(encodeModel(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.K != m.K || got.NumTerms() != m.NumTerms() || got.NumDocs() != m.NumDocs() {
		t.Fatal("shape mismatch after round trip")
	}
	if got.Scheme != m.Scheme {
		t.Fatal("scheme mismatch")
	}
	for i := range m.S {
		if got.S[i] != m.S[i] {
			t.Fatal("singular values differ")
		}
	}
	if !got.U.Equal(m.U, 0) || !got.V.Equal(m.V, 0) {
		t.Fatal("factors differ")
	}
	// Behavioural equivalence: same ranking for the same query.
	raw := make([]float64, 25)
	raw[3], raw[8] = 1, 2
	r1, r2 := m.Rank(raw), got.Rank(raw)
	for i := range r1 {
		if r1[i].Doc != r2[i].Doc || math.Float64bits(r1[i].Score) != math.Float64bits(r2[i].Score) {
			t.Fatal("loaded model ranks differently")
		}
	}
}

func TestModelRoundTripAfterFoldAndUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomCounts(rng, 25, 15, 0.3)
	m, err := Build(a, Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateDocs(randomCounts(rng, 25, 2, 0.3)); err != nil {
		t.Fatal(err)
	}
	m.FoldInDocs(randomCounts(rng, 25, 3, 0.3))
	m.FoldInTerms(randomCounts(rng, 2, 20, 0.3))

	path := filepath.Join(t.TempDir(), "model.lsnp")
	writeModelFile(t, path, m)
	got, f, err := openModelFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Fold bookkeeping survives, so the ErrFoldedModel guard still works.
	if got.FoldedDocs() != m.FoldedDocs() || got.FoldedTerms() != m.FoldedTerms() {
		t.Fatalf("fold counters lost: docs %d/%d terms %d/%d",
			got.FoldedDocs(), m.FoldedDocs(), got.FoldedTerms(), m.FoldedTerms())
	}
	if err := got.UpdateDocs(randomCounts(rng, got.NumTerms(), 1, 0.3)); err != ErrFoldedModel {
		t.Fatalf("expected ErrFoldedModel after reload, got %v", err)
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"garbage": []byte("not a model at all, nope"),
		"empty":   nil,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openModelFile(path, false); err == nil {
			t.Fatalf("expected error for %s input", name)
		}
	}
}

func TestReadModelRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomCounts(rng, 10, 8, 0.4)
	m, err := Build(a, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	full := encodeModel(t, m)
	f, err := snapfile.OpenBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	// V is the last section; one byte short of its payload is the
	// tightest truncation (anything past it is alignment padding).
	vEnd := int(f.SectionOffset("V")) + 8*len(m.V.Data)
	for _, cut := range []int{10, 80, len(full) / 2, vEnd - 1} {
		if _, err := readModel(full[:cut]); err == nil {
			t.Fatalf("expected error for truncation at %d bytes", cut)
		}
	}
}

func TestReadModelRejectsWrongVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randomCounts(rng, 10, 8, 0.4)
	m, err := Build(a, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := encodeModel(t, m)
	// Container version field, with the header CRC recomputed so the
	// version check itself — not the checksum — has to refuse it.
	binary.LittleEndian.PutUint32(b[4:], snapfile.Version+98)
	binary.LittleEndian.PutUint32(b[36:], crc32.ChecksumIEEE(b[:36]))
	if _, err := readModel(b); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}
