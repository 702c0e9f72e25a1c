package snapfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func encodeOrDie(t testing.TB, sections []Section) []byte {
	t.Helper()
	blob, err := Encode(sections)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return blob
}

// TestRoundTrip pins the write/reopen contract: every section comes
// back bit-identical, in order, through both the file path (mmap where
// available) and OpenBytes, and the whole file passes VerifyAll.
func TestRoundTrip(t *testing.T) {
	sections := []Section{
		{Name: "meta", Data: []byte(`{"k":12}`)},
		{Name: "empty", Data: nil},
		{Name: "S", Data: F64Bytes([]float64{3.5, 1.25, 0.5})},
		{Name: "members", Data: I32Bytes([]int32{7, -9, 1 << 20})},
	}
	path := filepath.Join(t.TempDir(), "snap.lsnp")
	if err := Write(path, sections); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if err := f.VerifyAll(); err != nil {
		t.Fatalf("VerifyAll: %v", err)
	}
	if got := f.Names(); len(got) != len(sections) {
		t.Fatalf("Names() = %v", got)
	}
	for i, s := range sections {
		b, ok := f.Section(s.Name)
		if !ok {
			t.Fatalf("section %q missing", s.Name)
		}
		if !bytes.Equal(b, s.Data) {
			t.Fatalf("section %q differs after round trip", s.Name)
		}
		if f.Names()[i] != s.Name {
			t.Fatalf("section order changed: %v", f.Names())
		}
	}
	fs, err := F64(mustSection(t, f, "S"))
	if err != nil || len(fs) != 3 || fs[0] != 3.5 {
		t.Fatalf("F64 view = %v, %v", fs, err)
	}
	ms, err := I32(mustSection(t, f, "members"))
	if err != nil || ms[2] != 1<<20 {
		t.Fatalf("I32 view = %v, %v", ms, err)
	}
}

// seedCorpusBytes returns a realistic multi-section image shaped like a
// real model snapshot and keeps testdata/seed.lsnp (the on-disk copy of
// the same bytes, used as a committed fuzz seed) in sync with the
// current format version.
func seedCorpusBytes(t testing.TB) []byte {
	blob := encodeOrDie(t, []Section{
		{Name: "meta", Data: []byte(`{"version":2,"shards":2}`)},
		{Name: "s0/S", Data: F64Bytes([]float64{9.5, 4.25, 1.0625})},
		{Name: "s0/V", Data: F64Bytes([]float64{0.5, -0.25, 0.125, 1})},
		{Name: "s0/counts", Data: I32Bytes([]int32{3, 1})},
		{Name: "s0/members", Data: I32Bytes([]int32{0, 1, 2, 3})},
	})
	path := filepath.Join("testdata", "seed.lsnp")
	if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, blob) {
		if err := os.MkdirAll("testdata", 0o755); err == nil {
			_ = os.WriteFile(path, blob, 0o644)
		}
	}
	return blob
}

// TestSeedCorpusCurrent regenerates testdata/seed.lsnp when the format
// changes and fails if the committed seed ever stops opening cleanly.
func TestSeedCorpusCurrent(t *testing.T) {
	seedCorpusBytes(t)
	disk, err := os.ReadFile(filepath.Join("testdata", "seed.lsnp"))
	if err != nil {
		t.Fatalf("reading seed corpus: %v", err)
	}
	f, err := OpenBytes(disk)
	if err != nil {
		t.Fatalf("committed seed does not open: %v", err)
	}
	if err := f.VerifyAll(); err != nil {
		t.Fatalf("committed seed does not verify: %v", err)
	}
}

func mustSection(t *testing.T, f *File, name string) []byte {
	t.Helper()
	b, ok := f.Section(name)
	if !ok {
		t.Fatalf("section %q missing", name)
	}
	return b
}

// TestWriteRejects pins writer-side validation: oversized and duplicate
// names fail before anything touches the disk.
func TestWriteRejects(t *testing.T) {
	if _, err := Encode([]Section{{Name: "", Data: nil}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := Encode([]Section{{Name: "name-longer-than-sixteen", Data: nil}}); err == nil {
		t.Fatal("oversized name accepted")
	}
	if _, err := Encode([]Section{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestCorruptionDetected pins the integrity ladder: header damage and
// table damage fail at OpenBytes (the O(1) validation); payload damage
// passes OpenBytes but fails VerifySection/VerifyAll.
func TestCorruptionDetected(t *testing.T) {
	blob := encodeOrDie(t, []Section{
		{Name: "a", Data: F64Bytes([]float64{1, 2, 3})},
		{Name: "b", Data: []byte("payload")},
	})
	// Recompute the payload layout from the documented format: table
	// right after the header, then 64-byte-aligned payloads in order.
	// This doubles as a pin on the layout contract.
	offA := alignUp(headerSize + 2*entrySize)
	endA := offA + 3*8
	offB := alignUp(endA)
	endB := offB + uint64(len("payload"))
	// Truncations that remove any payload, table, or header byte must
	// never pass a full verify. (Cuts beyond the last payload byte only
	// shave trailing alignment padding and legitimately still verify.)
	for cut := 0; cut < int(endB); cut += 7 {
		f, err := OpenBytes(blob[:cut])
		if err == nil && f.VerifyAll() == nil {
			t.Fatalf("truncation to %d bytes passed VerifyAll", cut)
		}
	}
	// A flipped header byte fails the header CRC.
	h := append([]byte(nil), blob...)
	h[9] ^= 0x40
	if _, err := OpenBytes(h); err == nil {
		t.Fatal("header corruption accepted")
	}
	// A flipped table byte fails the table CRC.
	tb := append([]byte(nil), blob...)
	tb[headerSize+3] ^= 1
	if _, err := OpenBytes(tb); err == nil {
		t.Fatal("table corruption accepted")
	}
	// A flipped payload byte passes O(1) open but fails that section's
	// CRC — and only that section's.
	pb := append([]byte(nil), blob...)
	f, err := OpenBytes(pb)
	if err != nil {
		t.Fatalf("OpenBytes on intact payload copy: %v", err)
	}
	pb[offB] ^= 0x80 // first byte of section b's payload
	if err := f.VerifySection("b"); err == nil {
		t.Fatal("payload corruption passed VerifySection")
	}
	if err := f.VerifySection("a"); err != nil {
		t.Fatalf("untouched section failed verify: %v", err)
	}
	if err := f.VerifyAll(); err == nil {
		t.Fatal("payload corruption passed VerifyAll")
	}
}

// FuzzOpenSnapshot is the satellite fuzz target, following the
// FuzzReadMatrixMarket pattern: arbitrary bytes must never panic, never
// allocate table space from an unvalidated count, and anything that
// opens and fully verifies must re-encode to an image that opens with
// identical section contents (bit-exact round trip).
func FuzzOpenSnapshot(f *testing.F) {
	f.Add(encodeOrDie(f, []Section{
		{Name: "meta", Data: []byte(`{"v":1}`)},
		{Name: "S", Data: F64Bytes([]float64{2.5, 0.125})},
		{Name: "counts", Data: I32Bytes([]int32{-3, 4, 5})},
	}))
	f.Add(encodeOrDie(f, nil))
	f.Add(encodeOrDie(f, []Section{{Name: "only", Data: bytes.Repeat([]byte{0xAB}, 200)}}))
	f.Add(seedCorpusBytes(f))
	// Mutated seeds: truncation and a flipped payload byte.
	whole := encodeOrDie(f, []Section{{Name: "x", Data: []byte("0123456789")}})
	f.Add(whole[:len(whole)-3])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := OpenBytes(data)
		if err != nil {
			return
		}
		if err := fl.VerifyAll(); err != nil {
			return
		}
		// Fully verified: rebuild the section list and round trip.
		var sections []Section
		for _, name := range fl.Names() {
			b, ok := fl.Section(name)
			if !ok {
				t.Fatalf("listed section %q missing", name)
			}
			sections = append(sections, Section{Name: name, Data: b})
		}
		blob, err := Encode(sections)
		if err != nil {
			t.Fatalf("re-encode of verified file failed: %v", err)
		}
		fl2, err := OpenBytes(blob)
		if err != nil {
			t.Fatalf("re-open of re-encode failed: %v", err)
		}
		if err := fl2.VerifyAll(); err != nil {
			t.Fatalf("re-encode failed verify: %v", err)
		}
		for _, name := range fl.Names() {
			a, _ := fl.Section(name)
			b, ok := fl2.Section(name)
			if !ok || !bytes.Equal(a, b) {
				t.Fatalf("section %q not bit-identical after round trip", name)
			}
		}
	})
}
