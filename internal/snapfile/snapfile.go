// Package snapfile is the memory-mappable snapshot container behind
// model persistence: a versioned header, a CRC-protected section table,
// and named 64-byte-aligned little-endian payload sections.
//
// The layout is built for O(1) opening: Open validates only the header
// and the section table (both small, both CRC'd) before handing out
// section views — payload bytes are mapped, not read, so a multi-GB
// model file costs page-table setup, not I/O, and cold rows fault in on
// demand as queries touch them. Every section carries its own CRC32 so
// callers can verify exactly the sections whose integrity matters at
// load time (small per-row arrays) while leaving bulk slabs to lazy
// paging; VerifyAll walks everything and is what the fuzz target and
// the test suite use.
//
// Alignment contract: every payload starts at a 64-byte offset within
// the file. An mmap base is page-aligned, so mapped sections are
// 64-byte aligned in memory and the typed view helpers (F64, I32) can
// alias the mapping without copying on little-endian hosts.
// The read-file fallback and big-endian hosts decode into fresh slices
// instead — same values, no aliasing assumptions.
package snapfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"unsafe"
)

const (
	// Magic identifies a snapshot container ("LSNP").
	Magic = 0x4c534e50
	// Version is the container format version.
	Version = 1

	headerSize = 64
	entrySize  = 40 // name[16] + off u64 + size u64 + crc u32 + pad u32
	// Align is the payload alignment: every section offset is a multiple
	// of this, chosen so float64 views are always aligned and section
	// starts sit on cache-line boundaries.
	Align = 64

	// maxSections bounds the section table accepted from a header, so a
	// corrupt count cannot drive the table allocation.
	maxSections = 1 << 16
	// maxNameLen is the fixed name field width; longer names are
	// rejected at write time.
	maxNameLen = 16
)

// Section is one named payload handed to Write.
type Section struct {
	Name string
	Data []byte
}

// span locates one section inside an opened file.
type span struct {
	off, size uint64
	crc       uint32
}

// File is an opened snapshot. Section data aliases the underlying
// mapping (or the fallback read buffer) — callers must treat every
// returned slice as read-only and must not use it after Close.
type File struct {
	data     []byte
	sections map[string]span
	names    []string
	closer   func() error
}

// Write serializes the sections to path: header, section table,
// payloads in order, each payload 64-byte aligned. The write goes
// through a temp file and an atomic rename, so a crash mid-save never
// leaves a half-written snapshot under the target name.
func Write(path string, sections []Section) error {
	blob, err := Encode(sections)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Encode builds the container image in memory — the writer behind
// Write, exported for tests and fuzzing.
func Encode(sections []Section) ([]byte, error) {
	if len(sections) > maxSections {
		return nil, fmt.Errorf("snapfile: %d sections exceed limit %d", len(sections), maxSections)
	}
	seen := make(map[string]bool, len(sections))
	for _, s := range sections {
		if s.Name == "" || len(s.Name) > maxNameLen {
			return nil, fmt.Errorf("snapfile: section name %q must be 1..%d bytes", s.Name, maxNameLen)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("snapfile: duplicate section %q", s.Name)
		}
		seen[s.Name] = true
	}
	tableOff := uint64(headerSize)
	tableLen := uint64(len(sections) * entrySize)
	off := alignUp(tableOff + tableLen)
	spans := make([]span, len(sections))
	for i, s := range sections {
		spans[i] = span{off: off, size: uint64(len(s.Data)), crc: crc32.ChecksumIEEE(s.Data)}
		off = alignUp(off + uint64(len(s.Data)))
	}
	blob := make([]byte, off)
	table := blob[tableOff : tableOff+tableLen]
	for i, s := range sections {
		e := table[i*entrySize:]
		copy(e[:maxNameLen], s.Name)
		binary.LittleEndian.PutUint64(e[16:], spans[i].off)
		binary.LittleEndian.PutUint64(e[24:], spans[i].size)
		binary.LittleEndian.PutUint32(e[32:], spans[i].crc)
		copy(blob[spans[i].off:], s.Data)
	}
	h := blob[:headerSize]
	binary.LittleEndian.PutUint32(h[0:], Magic)
	binary.LittleEndian.PutUint32(h[4:], Version)
	binary.LittleEndian.PutUint32(h[8:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(h[16:], tableOff)
	binary.LittleEndian.PutUint64(h[24:], tableLen)
	binary.LittleEndian.PutUint32(h[32:], crc32.ChecksumIEEE(table))
	binary.LittleEndian.PutUint32(h[36:], crc32.ChecksumIEEE(h[:36]))
	return blob, nil
}

// Open maps the snapshot at path read-only (falling back to a plain
// read where mmap is unavailable) and validates the header and section
// table — O(table), independent of payload size. Payload CRCs are NOT
// checked here; call VerifySection / VerifyAll for that.
func Open(path string) (*File, error) {
	data, closer, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := OpenBytes(data)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, err
	}
	f.closer = closer
	return f, nil
}

// OpenBytes validates a container image already in memory. Sections
// alias data.
func OpenBytes(data []byte) (*File, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("snapfile: %d bytes is smaller than the header", len(data))
	}
	h := data[:headerSize]
	if got := binary.LittleEndian.Uint32(h[0:]); got != Magic {
		return nil, fmt.Errorf("snapfile: bad magic %#x", got)
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != Version {
		return nil, fmt.Errorf("snapfile: unsupported version %d", v)
	}
	if got, want := crc32.ChecksumIEEE(h[:36]), binary.LittleEndian.Uint32(h[36:]); got != want {
		return nil, fmt.Errorf("snapfile: header CRC mismatch (%#x != %#x)", got, want)
	}
	nsect := binary.LittleEndian.Uint32(h[8:])
	if nsect > maxSections {
		return nil, fmt.Errorf("snapfile: section count %d exceeds limit %d", nsect, maxSections)
	}
	tableOff := binary.LittleEndian.Uint64(h[16:])
	tableLen := binary.LittleEndian.Uint64(h[24:])
	if tableLen != uint64(nsect)*entrySize {
		return nil, fmt.Errorf("snapfile: table length %d != %d sections", tableLen, nsect)
	}
	end := tableOff + tableLen
	if tableOff < headerSize || end < tableOff || end > uint64(len(data)) {
		return nil, fmt.Errorf("snapfile: section table [%d,%d) outside file of %d bytes", tableOff, end, len(data))
	}
	table := data[tableOff:end]
	if got, want := crc32.ChecksumIEEE(table), binary.LittleEndian.Uint32(h[32:]); got != want {
		return nil, fmt.Errorf("snapfile: section table CRC mismatch (%#x != %#x)", got, want)
	}
	f := &File{data: data, sections: make(map[string]span, nsect), names: make([]string, 0, nsect)}
	for i := uint32(0); i < nsect; i++ {
		e := table[i*entrySize:]
		name := string(trimNul(e[:maxNameLen]))
		if name == "" {
			return nil, fmt.Errorf("snapfile: empty section name at entry %d", i)
		}
		if _, dup := f.sections[name]; dup {
			return nil, fmt.Errorf("snapfile: duplicate section %q", name)
		}
		sp := span{
			off:  binary.LittleEndian.Uint64(e[16:]),
			size: binary.LittleEndian.Uint64(e[24:]),
			crc:  binary.LittleEndian.Uint32(e[32:]),
		}
		pend := sp.off + sp.size
		if sp.off%Align != 0 || pend < sp.off || pend > uint64(len(data)) {
			return nil, fmt.Errorf("snapfile: section %q spans [%d,%d) outside file of %d bytes",
				name, sp.off, pend, len(data))
		}
		f.sections[name] = sp
		f.names = append(f.names, name)
	}
	return f, nil
}

func trimNul(b []byte) []byte {
	for i, c := range b {
		if c == 0 {
			return b[:i]
		}
	}
	return b
}

// Names lists the sections in table order.
func (f *File) Names() []string { return f.names }

// Section returns the raw bytes of a named section (aliasing the
// mapping; treat as read-only) and whether it exists.
func (f *File) Section(name string) ([]byte, bool) {
	sp, ok := f.sections[name]
	if !ok {
		return nil, false
	}
	return f.data[sp.off : sp.off+sp.size : sp.off+sp.size], true
}

// SectionOffset returns a section's payload offset within the file
// (-1 when absent) — for tools that patch or inspect containers in
// place.
func (f *File) SectionOffset(name string) int64 {
	sp, ok := f.sections[name]
	if !ok {
		return -1
	}
	return int64(sp.off)
}

// VerifySection checks one section's payload CRC — O(section size).
func (f *File) VerifySection(name string) error {
	sp, ok := f.sections[name]
	if !ok {
		return fmt.Errorf("snapfile: no section %q", name)
	}
	if got := crc32.ChecksumIEEE(f.data[sp.off : sp.off+sp.size]); got != sp.crc {
		return fmt.Errorf("snapfile: section %q CRC mismatch (%#x != %#x)", name, got, sp.crc)
	}
	return nil
}

// VerifyAll checks every section's payload CRC — O(file size); the
// offline integrity pass, not part of serving startup.
func (f *File) VerifyAll() error {
	for _, name := range f.names {
		if err := f.VerifySection(name); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the mapping. Section slices handed out earlier must
// not be used afterwards.
func (f *File) Close() error {
	f.data = nil
	f.sections = nil
	if f.closer != nil {
		c := f.closer
		f.closer = nil
		return c()
	}
	return nil
}

func alignUp(n uint64) uint64 { return (n + Align - 1) &^ (Align - 1) }

// hostLittleEndian reports whether the running machine stores multi-
// byte integers little-endian — the precondition for aliasing section
// bytes as typed slices instead of decoding them.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aliasable reports whether b can be reinterpreted in place as a slice
// of elemSize-byte little-endian elements.
func aliasable(b []byte, elemSize int) bool {
	return hostLittleEndian && len(b) > 0 &&
		uintptr(unsafe.Pointer(&b[0]))%uintptr(elemSize) == 0
}

// F64 views a section as float64s: zero-copy when the host is
// little-endian and the bytes are aligned (the mmap path), a decoded
// copy otherwise. Errors when the length is not a multiple of 8.
func F64(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("snapfile: %d bytes is not a float64 payload", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if aliasable(b, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// I32 views a section as int32s (zero-copy when aligned + LE host).
func I32(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("snapfile: %d bytes is not an int32 payload", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if aliasable(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// F64Bytes encodes float64s little-endian — the writer-side dual of F64.
func F64Bytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

// I32Bytes encodes int32s little-endian.
func I32Bytes(xs []int32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(x))
	}
	return out
}
