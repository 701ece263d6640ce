package tdmatch

// Snapshot format v6: a flat, little-endian, 64-byte-aligned layout
// whose big payloads — the raw document-vector arena, the term-vector
// arena, and one normalized arena (plus HNSW graph sections) per sealed
// serving segment — are stored as raw contiguous sections described by
// a fixed header and a section table, so loading can mmap the file and
// bind the serving indexes directly onto the mapping with zero decode
// and zero copy. It is the only format written; the gob formats (v1–v5)
// stay readable through the legacy decode path, and ReadSnapshot
// auto-detects by magic.
//
// Layout (all integers little-endian):
//
//	[ 0,  8) magic "TDMSNAP6"
//	[ 8, 12) u32 format version (6)
//	[12, 16) u32 header size (64)
//	[16, 20) u32 section count
//	[20, 24) u32 flags: bit 0 set, section checksums are CRC32C; other bits 0
//	[24, 32) u64 file size
//	[32, 40) u64 FNV-1a of the section table bytes
//	[40, 48) u64 FNV-1a of header bytes [0, 40)
//	[48, 64) reserved (zero)
//
// followed by section-count 32-byte table entries
//
//	u32 type | u32 index | u64 offset | u64 length | u64 checksum of payload
//
// The checksum is CRC32C (Castagnoli), zero-extended, when flags bit 0
// is set, as SaveV6 writes it; files written with flags 0 carry the
// FNV-1a of each payload. The header and table checksums are FNV-1a
// under both, so the flags are trusted before they pick the algorithm.
//
// and the payloads, each starting at a 64-byte-aligned offset with
// zero padding between them. Segment sections address (side, ordinal)
// through the index field as side<<16|ordinal, with the mutable delta
// as the last ordinal (manifest only — its rows are regathered from
// the raw arena at bind, exactly like the gob path). The graph is not
// persisted, matching every earlier version: a loaded model matches
// and ingests but does not retrain.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"
	"unsafe"

	"github.com/tdmatch/tdmatch/internal/fnv1a"
	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/mmapfile"
)

// v6Magic is the first eight bytes of every v6 snapshot file.
const v6Magic = "TDMSNAP6"

const (
	savedModelVersionV6 = 6
	v6HeaderSize        = 64
	v6EntrySize         = 32
	v6Align             = 64

	// v6FlagCRC32C is header flags bit 0: the section checksums are
	// CRC32C rather than FNV-1a.
	v6FlagCRC32C uint32 = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// v6SectionSum is the checksum a section table entry stores for payload
// p under the header flags: its CRC32C, zero-extended, when flags carry
// v6FlagCRC32C, otherwise its FNV-1a.
func v6SectionSum(flags uint32, p []byte) uint64 {
	if flags&v6FlagCRC32C != 0 {
		return uint64(crc32c(p))
	}
	return fnv1a.Sum(p)
}

// crc32cChunk bounds one call into the CRC32C assembly, which the
// runtime cannot preempt: between chunks a stop-the-world (a GC cycle
// the bind beside the verifier starts) waits well under a millisecond,
// where one call over a multi-megabyte arena held every goroutine for
// about 4 ms.
const crc32cChunk = 256 << 10

// crc32c is the CRC32C (Castagnoli) of p, computed crc32cChunk bytes at
// a time.
func crc32c(p []byte) uint32 {
	var sum uint32
	for len(p) > crc32cChunk {
		sum = crc32.Update(sum, castagnoli, p[:crc32cChunk])
		p = p[crc32cChunk:]
	}
	return crc32.Update(sum, castagnoli, p)
}

// Section types of the v6 layout.
const (
	secMetaJSON    uint32 = 1 // model metadata + delta chain (JSON)
	secDocIDs      uint32 = 2 // sorted document IDs (string table)
	secDocArena    uint32 = 3 // raw (unnormalized) float32 rows, DocIDs order
	secTermIDs     uint32 = 4 // sorted term IDs (string table)
	secTermArena   uint32 = 5 // term float32 rows, TermIDs order
	secSegManifest uint32 = 6 // one segment's live IDs (string table)
	secSegArena    uint32 = 7 // sealed segment's normalized float32 rows

	// Types 8 and 9 are reserved: the int8 codes and float32 scales of a
	// segment saved with the removed SQ8 kind. Eager verification still
	// checksums them; nothing else reads them.
	secRemovedSQ8Codes  uint32 = 8
	secRemovedSQ8Scales uint32 = 9

	// HNSW graph sections of one sealed segment (IndexHNSW models): the
	// per-row level assignments and the flattened CSR adjacency
	// (cumulative offsets + concatenated neighbor arena), all int32
	// little-endian, bound read-only via match.NewHNSWParts with
	// copy-on-write promotion on the first graph mutation.
	secSegHNSWLevels uint32 = 10
	secSegHNSWOffs   uint32 = 11
	secSegHNSWAdj    uint32 = 12
)

// VerifyMode selects how much of a v6 snapshot OpenSnapshotFileVerify
// checks before binding.
type VerifyMode int

const (
	// VerifyEager checks every section's checksum and the cross-section
	// invariants — the default and what the durability tests exercise.
	// A file SaveV6 writes carries CRC32C section sums, which the
	// standard library computes with the CPU's CRC instructions; a file
	// written with FNV-1a section sums verifies at serial FNV-1a speed,
	// several times slower, until it is saved again. The first mismatch
	// in table order is reported.
	// OpenSnapshotFile runs the checks before it returns; LoadSnapshotFile
	// runs them on a second goroutine beside the caller's corpus load and
	// Bind, and returns the model only once they have passed.
	VerifyEager VerifyMode = iota
	// VerifyLazy validates only the header, section table and structural
	// bounds; payload checksums are skipped. This is the microsecond
	// cold-start path for files trusted by construction (e.g. a
	// checkpoint the same daemon just wrote); a torn payload surfaces as
	// wrong scores, not a failed open.
	VerifyLazy
)

// String names the mode as tdserved's -snapshot-verify flag spells it.
func (v VerifyMode) String() string {
	switch v {
	case VerifyEager:
		return "eager"
	case VerifyLazy:
		return "lazy"
	}
	return fmt.Sprintf("VerifyMode(%d)", int(v))
}

// v6Meta is the JSON-encoded metadata section: everything the gob
// savedModel carries outside the big arrays. IVFClusters, IVFNProbe and
// ExactRecall belonged to the removed IVF kind and SQ8Rerank to the
// removed SQ8 kind; they stay in the layout, always written as zero and
// never read, so files keep their bytes. FirstFile and SecondFile
// fingerprint the files the base corpora were read from; a model whose
// corpora were built in memory omits them, and writes the bytes it
// wrote before they existed.
type v6Meta struct {
	Dim             int
	FirstName       string
	SecondName      string
	Index           uint8
	IVFClusters     int
	IVFNProbe       int
	ExactRecall     bool
	SQ8Rerank       int
	HNSWM           int `json:",omitempty"`
	HNSWEf          int `json:",omitempty"`
	HNSWEfConstruct int `json:",omitempty"`
	Seed            int64
	MaxNGram        int
	Staleness       int
	Deltas          []savedDelta
	FirstSegs       int
	SecondSegs      int
	FirstFile       *fileSum `json:",omitempty"`
	SecondFile      *fileSum `json:",omitempty"`
}

// v6Segment is one serving segment parsed from a v6 snapshot: sealed
// segments carry their normalized arena (a view into the mapping); the
// final (delta) entry carries IDs only.
type v6Segment struct {
	ids   []string
	arena []float32
	// HNSW graph sections (IndexHNSW models): per-row levels plus the
	// CSR adjacency, views into the mapping bound via NewHNSWParts.
	levels []int32
	offs   []int32
	adj    []int32
}

// v6State is the parsed zero-copy payload a Snapshot carries for Bind.
type v6State struct {
	first  []v6Segment
	second []v6Segment
}

func v6AlignUp(n int64) int64 {
	return (n + v6Align - 1) &^ (v6Align - 1)
}

// hostLittleEndian reports whether the running machine stores integers
// little-endian; on such hosts (amd64, arm64, ...) v6 payloads cast to
// typed views in place, otherwise they are decoded element-wise.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// encodeStringTable serializes ids as: u32 count, u32 cumulative byte
// offsets [count+1] (first 0, last = total bytes), then the
// concatenated string bytes.
func encodeStringTable(ids []string) []byte {
	total := 0
	for _, s := range ids {
		total += len(s)
	}
	buf := make([]byte, 4+4*(len(ids)+1)+total)
	binary.LittleEndian.PutUint32(buf, uint32(len(ids)))
	off := uint32(0)
	for i, s := range ids {
		binary.LittleEndian.PutUint32(buf[4+4*i:], off)
		copy(buf[4+4*(len(ids)+1)+int(off):], s)
		off += uint32(len(s))
	}
	binary.LittleEndian.PutUint32(buf[4+4*len(ids):], off)
	return buf
}

// decodeStringTable parses an encodeStringTable payload, validating
// every offset before use so corrupt tables fail cleanly rather than
// panicking. The returned strings alias b zero-copy; the caller keeps
// the backing memory alive (the snapshot pins its mapping).
func decodeStringTable(b []byte) ([]string, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("tdmatch: string table of %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 0 || n > (len(b)-8)/4 {
		return nil, fmt.Errorf("tdmatch: string table count %d exceeds section size %d", n, len(b))
	}
	strBytes := b[4+4*(n+1):]
	prev := uint32(0)
	ids := make([]string, n)
	for i := 0; i <= n; i++ {
		off := binary.LittleEndian.Uint32(b[4+4*i:])
		if off < prev || off > uint32(len(strBytes)) {
			return nil, fmt.Errorf("tdmatch: string table offset %d out of order or bounds", off)
		}
		if i > 0 {
			l := off - prev
			if l == 0 {
				ids[i-1] = ""
			} else {
				ids[i-1] = unsafe.String(&strBytes[prev], int(l))
			}
		}
		prev = off
	}
	if prev != uint32(len(strBytes)) {
		return nil, fmt.Errorf("tdmatch: string table covers %d of %d bytes", prev, len(strBytes))
	}
	return ids, nil
}

// f32Bytes serializes a float32 slice little-endian.
func f32Bytes(v []float32) []byte {
	buf := make([]byte, len(v)*4)
	for i, f := range v {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(f))
	}
	return buf
}

// castF32 views a little-endian payload as []float32 without copying
// (on little-endian hosts with aligned backing; the mmap/aligned-heap
// loaders guarantee 4-byte alignment of 64-byte-aligned sections).
func castF32(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("tdmatch: float section of %d bytes", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// i32Bytes serializes an int32 slice little-endian.
func i32Bytes(v []int32) []byte {
	buf := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(x))
	}
	return buf
}

// castI32 views a little-endian payload as []int32 without copying (on
// little-endian hosts with aligned backing, same contract as castF32).
func castI32(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("tdmatch: int32 section of %d bytes", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// v6SectionData is one section being assembled by the writer.
type v6SectionData struct {
	typ, idx uint32
	payload  []byte
	offset   int64
}

// SaveStats reports what one version-6 save did with the model's sealed
// serving segments. A daemon whose saves keep rebuilding (tombstones it
// never compacts away) shows here, without a profiler.
type SaveStats struct {
	// SegmentsReused counts sealed segments written from the live
	// serving index: its normalized arena and, under IndexHNSW, its
	// graph, as they stand.
	SegmentsReused int
	// SegmentsRebuilt counts sealed segments whose sections were rebuilt
	// from the model's vectors because the live segment holds tombstoned
	// rows, which its saved form drops.
	SegmentsRebuilt int
	// Elapsed is the wall time of the save, from opening the sidecar file
	// to the directory fsync after the rename.
	Elapsed time.Duration
}

// SaveV6 writes the model in snapshot format v6 (see the package
// layout comment). The raw document arena keeps reloads bit-identical
// for query vectors; each sealed segment's sections hold its rows
// normalized (and, under IndexHNSW, linked into the graph) exactly as a
// build produces them, so a v6 load binds those
// sections as borrowed arenas with no per-row work.
//
// A clean sealed segment — no tombstoned row — is written from the live
// serving index as it stands. A segment with tombstones is rebuilt over
// its live rows by the same seeded, row-ordered construction the
// builder, the seal hook and the binder use. The two produce the same
// bytes for a clean segment, so what is written never depends on which
// ran.
func (m *Model) SaveV6(w io.Writer) error {
	_, err := m.saveV6(w, true)
	return err
}

// saveV6 is SaveV6 returning its segment counts (Elapsed is the file
// saver's to fill); reuse false forces every sealed segment through the
// rebuild, which tests hold the reuse to.
func (m *Model) saveV6(w io.Writer, reuse bool) (SaveStats, error) {
	var st SaveStats
	ids := make([]string, 0, len(m.vectors))
	for id := range m.vectors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	raw := make([]float32, len(ids)*m.dim)
	for i, id := range ids {
		copy(raw[i*m.dim:(i+1)*m.dim], m.vectors[id])
	}
	termIDs, termArena := m.termVectors()

	firstMan := m.firstIdx.SegmentManifest()
	secondMan := m.secondIdx.SegmentManifest()
	firstName, secondName := m.corpusNames()
	meta := v6Meta{
		Dim:             m.dim,
		FirstName:       firstName,
		SecondName:      secondName,
		Index:           uint8(m.cfg.Index),
		HNSWM:           m.cfg.HNSWM,
		HNSWEf:          m.cfg.HNSWEf,
		HNSWEfConstruct: m.cfg.HNSWEfConstruct,
		Seed:            m.cfg.Seed,
		MaxNGram:        m.cfg.MaxNGram,
		Staleness:       m.Staleness(),
		Deltas:          m.deltas,
		FirstSegs:       len(firstMan),
		SecondSegs:      len(secondMan),
	}
	if m.files != nil {
		meta.FirstFile, meta.SecondFile = &m.files[0], &m.files[1]
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return st, err
	}

	var secs []v6SectionData
	add := func(typ, idx uint32, payload []byte) {
		secs = append(secs, v6SectionData{typ: typ, idx: idx, payload: payload})
	}
	add(secMetaJSON, 0, metaJSON)
	add(secDocIDs, 0, encodeStringTable(ids))
	add(secDocArena, 0, f32Bytes(raw))
	if len(termIDs) > 0 {
		add(secTermIDs, 0, encodeStringTable(termIDs))
		add(secTermArena, 0, f32Bytes(termArena))
	}
	stacks := [2]*match.Segmented{m.firstIdx, m.secondIdx}
	for side, man := range [][][]string{firstMan, secondMan} {
		for ord, segIDs := range man {
			key := uint32(side)<<16 | uint32(ord)
			add(secSegManifest, key, encodeStringTable(segIDs))
			if ord == len(man)-1 || len(segIDs) == 0 {
				continue // delta entry, or an all-tombstoned segment: IDs only
			}
			var seg match.VectorIndex
			var flat *match.Index
			if reuse {
				seg, flat = m.reusableSegment(stacks[side], side, ord)
			}
			if seg != nil {
				st.SegmentsReused++
			} else {
				st.SegmentsRebuilt++
				if flat, err = m.buildFlatIDs(segIDs); err != nil {
					return st, err
				}
				seg = m.cfg.wrapSegment(flat, side, ord)
			}
			add(secSegArena, key, f32Bytes(flat.Arena()))
			if h, ok := seg.(*match.HNSW); ok {
				offs, adj := h.FlattenLinks()
				add(secSegHNSWLevels, key, i32Bytes(h.Levels()))
				add(secSegHNSWOffs, key, i32Bytes(offs))
				add(secSegHNSWAdj, key, i32Bytes(adj))
			}
		}
	}

	// Lay the sections out 64-byte aligned after the header and table.
	off := v6AlignUp(int64(v6HeaderSize + len(secs)*v6EntrySize))
	table := make([]byte, len(secs)*v6EntrySize)
	for i := range secs {
		secs[i].offset = off
		e := table[i*v6EntrySize:]
		binary.LittleEndian.PutUint32(e, secs[i].typ)
		binary.LittleEndian.PutUint32(e[4:], secs[i].idx)
		binary.LittleEndian.PutUint64(e[8:], uint64(off))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(secs[i].payload)))
		binary.LittleEndian.PutUint64(e[24:], v6SectionSum(v6FlagCRC32C, secs[i].payload))
		off = v6AlignUp(off + int64(len(secs[i].payload)))
	}
	fileSize := off

	header := make([]byte, v6HeaderSize)
	copy(header, v6Magic)
	binary.LittleEndian.PutUint32(header[8:], savedModelVersionV6)
	binary.LittleEndian.PutUint32(header[12:], v6HeaderSize)
	binary.LittleEndian.PutUint32(header[16:], uint32(len(secs)))
	binary.LittleEndian.PutUint32(header[20:], v6FlagCRC32C)
	binary.LittleEndian.PutUint64(header[24:], uint64(fileSize))
	binary.LittleEndian.PutUint64(header[32:], fnv1a.Sum(table))
	binary.LittleEndian.PutUint64(header[40:], fnv1a.Sum(header[:40]))

	bw := bufio.NewWriterSize(w, 1<<20)
	pos := int64(0)
	emit := func(b []byte) error {
		n, err := bw.Write(b)
		pos += int64(n)
		return err
	}
	pad := func(to int64) error {
		for pos < to {
			chunk := to - pos
			if chunk > int64(len(v6Padding)) {
				chunk = int64(len(v6Padding))
			}
			if err := emit(v6Padding[:chunk]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(header); err != nil {
		return st, err
	}
	if err := emit(table); err != nil {
		return st, err
	}
	for _, s := range secs {
		if err := pad(s.offset); err != nil {
			return st, err
		}
		if err := emit(s.payload); err != nil {
			return st, err
		}
	}
	if err := pad(fileSize); err != nil {
		return st, err
	}
	return st, bw.Flush()
}

// reusableSegment returns sealed segment ord of a side's stack, with its
// row storage, when SaveV6 can write it
// as it stands: the segment is clean and, for an HNSW graph, a rebuild
// of this ordinal would draw the same skeleton (a graph bound from a
// snapshot that numbered its segments differently would not). Nils send
// the writer to the rebuild.
func (m *Model) reusableSegment(stack *match.Segmented, side, ord int) (match.VectorIndex, *match.Index) {
	idx, flat := stack.CleanSegment(ord)
	if idx == nil {
		return nil, nil
	}
	if h, ok := idx.(*match.HNSW); ok && !h.BuiltWith(m.cfg.hnswOptions(side, ord)) {
		return nil, nil
	}
	return idx, flat
}

// v6Padding is the zero source for inter-section alignment padding.
var v6Padding [v6Align]byte

// SaveFileV6 writes the model to a file in format v6, atomically: the
// snapshot is written and fsynced to a sidecar (path + ".tmp"), renamed
// into place, and the parent directory is fsynced, so a crash leaves
// either the previous or the new snapshot intact.
func (m *Model) SaveFileV6(path string) error {
	_, err := m.SaveFileV6Stats(path)
	return err
}

// SaveFileV6Stats is SaveFileV6 reporting what the save did with the
// sealed segments and how long it took — what tdserved logs on every
// save and checkpoint.
func (m *Model) SaveFileV6Stats(path string) (SaveStats, error) {
	start := time.Now()
	var st SaveStats
	err := saveFileAtomic(path, func(w io.Writer) (err error) {
		st, err = m.saveV6(w, true)
		return err
	})
	st.Elapsed = time.Since(start)
	return st, err
}

// v6SecKey addresses one parsed section by (type, index).
type v6SecKey struct{ typ, idx uint32 }

// corruptV6 formats the error every v6 integrity failure reports.
func corruptV6(format string, args ...interface{}) error {
	return fmt.Errorf("tdmatch: corrupt v6 snapshot: "+format, args...)
}

// isV6 reports whether data starts with the v6 magic.
func isV6(data []byte) bool {
	return len(data) >= len(v6Magic) && string(data[:len(v6Magic)]) == v6Magic
}

// v6Layout is a v6 file past the structural checks: the header and
// section-table checksums match, the flags are known, every section lies
// in bounds at an aligned offset, and no (type, index) key repeats.
type v6Layout struct {
	flags    uint32
	table    []byte
	sections map[v6SecKey][]byte
	// payloads are the sections in table order, so verifySums names the
	// first mismatch the table lists.
	payloads [][]byte
}

// parseV6 validates a v6 payload and assembles the zero-copy Snapshot
// in the three steps every v6 load shares: the structural checks
// (parseV6Layout, microseconds), the payload checks (verifySums and
// verifyUnique, VerifyEager only) and the decode. The structural checks
// and the decode's own bounds (string tables, arena lengths) always
// run, so a corrupt file can never panic the binder. backing, when
// non-nil, is the mapping data aliases; the Snapshot pins it and hands
// it to the bound Model.
func parseV6(data []byte, mode VerifyMode, backing *mmapfile.Mapping) (*Snapshot, error) {
	l, err := parseV6Layout(data)
	if err != nil {
		return nil, err
	}
	if mode == VerifyEager {
		if err := l.verifySums(); err != nil {
			return nil, err
		}
	}
	snap, err := l.decode(backing)
	if err != nil {
		return nil, err
	}
	if mode == VerifyEager {
		if err := snap.v6.verifyUnique(); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// parseV6Layout runs the structural checks: header, flags, table
// checksum, section bounds and duplicate keys.
func parseV6Layout(data []byte) (*v6Layout, error) {
	if len(data) < v6HeaderSize {
		return nil, corruptV6("%d bytes, need at least the %d-byte header", len(data), v6HeaderSize)
	}
	if string(data[:8]) != v6Magic {
		return nil, corruptV6("bad magic")
	}
	if got := binary.LittleEndian.Uint64(data[40:48]); got != fnv1a.Sum(data[:40]) {
		return nil, corruptV6("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != savedModelVersionV6 {
		return nil, fmt.Errorf("tdmatch: unsupported model version %d", v)
	}
	if hs := binary.LittleEndian.Uint32(data[12:16]); hs != v6HeaderSize {
		return nil, corruptV6("header size %d", hs)
	}
	flags := binary.LittleEndian.Uint32(data[20:24])
	if flags&^v6FlagCRC32C != 0 {
		return nil, corruptV6("unknown header flags %#x", flags)
	}
	fileSize := binary.LittleEndian.Uint64(data[24:32])
	if fileSize != uint64(len(data)) {
		return nil, corruptV6("file size %d, have %d bytes (truncated or padded)", fileSize, len(data))
	}
	nSecs := int(binary.LittleEndian.Uint32(data[16:20]))
	tableEnd := int64(v6HeaderSize) + int64(nSecs)*v6EntrySize
	if nSecs < 1 || tableEnd > int64(len(data)) {
		return nil, corruptV6("section count %d exceeds file size", nSecs)
	}
	table := data[v6HeaderSize:tableEnd]
	if got := binary.LittleEndian.Uint64(data[32:40]); got != fnv1a.Sum(table) {
		return nil, corruptV6("section table checksum mismatch")
	}

	l := &v6Layout{
		flags:    flags,
		table:    table,
		sections: make(map[v6SecKey][]byte, nSecs),
		payloads: make([][]byte, nSecs),
	}
	for i := 0; i < nSecs; i++ {
		e := table[i*v6EntrySize:]
		typ := binary.LittleEndian.Uint32(e)
		idx := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%v6Align != 0 || off < uint64(tableEnd) || off > uint64(len(data)) ||
			length > uint64(len(data))-off {
			return nil, corruptV6("section %d (type %d) offset %d length %d out of bounds", i, typ, off, length)
		}
		if sum := binary.LittleEndian.Uint64(e[24:]); flags&v6FlagCRC32C != 0 && sum>>32 != 0 {
			return nil, corruptV6("section %d (type %d) CRC32C checksum %#x exceeds 32 bits", i, typ, sum)
		}
		key := v6SecKey{typ, idx}
		if _, dup := l.sections[key]; dup {
			return nil, corruptV6("duplicate section type %d index %d", typ, idx)
		}
		l.sections[key] = data[off : off+length : off+length]
		l.payloads[i] = l.sections[key]
	}
	return l, nil
}

// verifySums checks every section's checksum, in table order, and names
// the first mismatch. It only reads the payloads, so it may run beside
// decode and Bind over the same bytes.
func (l *v6Layout) verifySums() error {
	for i, p := range l.payloads {
		e := l.table[i*v6EntrySize:]
		if v6SectionSum(l.flags, p) != binary.LittleEndian.Uint64(e[24:]) {
			return corruptV6("section type %d index %d checksum mismatch",
				binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]))
		}
	}
	return nil
}

// verifyUnique checks the cross-segment ID uniqueness the gob path
// enforces: no document appears in two segments of one side.
func (st *v6State) verifyUnique() error {
	for side, segs := range [][]v6Segment{st.first, st.second} {
		seen := make(map[string]struct{})
		for _, seg := range segs {
			for _, id := range seg.ids {
				if _, dup := seen[id]; dup {
					return corruptV6("document %q appears in two side-%d segments", id, side+1)
				}
				seen[id] = struct{}{}
			}
		}
	}
	return nil
}

// decode assembles the Snapshot from the structurally valid sections:
// metadata, string tables and typed views of the arenas, each checked
// against the others' lengths.
func (l *v6Layout) decode(backing *mmapfile.Mapping) (*Snapshot, error) {
	fail := func(format string, args ...interface{}) (*Snapshot, error) {
		return nil, corruptV6(format, args...)
	}
	sections := l.sections
	metaJSON, ok := sections[v6SecKey{secMetaJSON, 0}]
	if !ok {
		return fail("missing metadata section")
	}
	var meta v6Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return fail("metadata: %v", err)
	}
	if meta.Dim <= 0 {
		return fail("dimension %d", meta.Dim)
	}
	// A side is a base segment through the mutable delta, which makes
	// at least two entries: SaveV6 has never written fewer.
	const maxSegs = 1 << 20
	for _, n := range []int{meta.FirstSegs, meta.SecondSegs} {
		if n < 2 || n > maxSegs {
			return fail("segment counts %d/%d", meta.FirstSegs, meta.SecondSegs)
		}
	}

	docIDsSec, ok := sections[v6SecKey{secDocIDs, 0}]
	if !ok {
		return fail("missing document ID section")
	}
	docIDs, err := decodeStringTable(docIDsSec)
	if err != nil {
		return nil, err
	}
	arenaSec, ok := sections[v6SecKey{secDocArena, 0}]
	if !ok {
		return fail("missing document arena section")
	}
	docArena, err := castF32(arenaSec)
	if err != nil {
		return nil, err
	}

	var termIDs []string
	var termArena []float32
	if sec, ok := sections[v6SecKey{secTermIDs, 0}]; ok {
		if termIDs, err = decodeStringTable(sec); err != nil {
			return nil, err
		}
		taSec, ok := sections[v6SecKey{secTermArena, 0}]
		if !ok {
			return fail("term IDs without a term arena")
		}
		if termArena, err = castF32(taSec); err != nil {
			return nil, err
		}
		if err := checkTermOrder(termIDs); err != nil {
			return nil, err
		}
	}

	parseSide := func(side, count int) ([]v6Segment, error) {
		segs := make([]v6Segment, count)
		for ord := 0; ord < count; ord++ {
			key := uint32(side)<<16 | uint32(ord)
			man, ok := sections[v6SecKey{secSegManifest, key}]
			if !ok {
				return nil, corruptV6("missing side-%d segment %d manifest", side+1, ord)
			}
			ids, err := decodeStringTable(man)
			if err != nil {
				return nil, err
			}
			segs[ord].ids = ids
			if ord == count-1 || len(ids) == 0 {
				continue // the mutable delta, or an all-tombstoned segment
			}
			ar, ok := sections[v6SecKey{secSegArena, key}]
			if !ok {
				return nil, corruptV6("missing side-%d segment %d arena", side+1, ord)
			}
			if segs[ord].arena, err = castF32(ar); err != nil {
				return nil, err
			}
			if len(segs[ord].arena) != len(ids)*meta.Dim {
				return nil, corruptV6("side-%d segment %d arena holds %d floats for %d rows",
					side+1, ord, len(segs[ord].arena), len(ids))
			}
			levels, haveLevels := sections[v6SecKey{secSegHNSWLevels, key}]
			offs, haveOffs := sections[v6SecKey{secSegHNSWOffs, key}]
			adj, haveAdj := sections[v6SecKey{secSegHNSWAdj, key}]
			if haveLevels != haveOffs || haveLevels != haveAdj {
				return nil, corruptV6("side-%d segment %d has a partial HNSW graph", side+1, ord)
			}
			if haveLevels {
				if segs[ord].levels, err = castI32(levels); err != nil {
					return nil, err
				}
				if segs[ord].offs, err = castI32(offs); err != nil {
					return nil, err
				}
				if segs[ord].adj, err = castI32(adj); err != nil {
					return nil, err
				}
				if len(segs[ord].levels) != len(ids) {
					return nil, corruptV6("side-%d segment %d carries %d HNSW levels for %d rows",
						side+1, ord, len(segs[ord].levels), len(ids))
				}
			}
		}
		return segs, nil
	}
	first, err := parseSide(0, meta.FirstSegs)
	if err != nil {
		return nil, err
	}
	second, err := parseSide(1, meta.SecondSegs)
	if err != nil {
		return nil, err
	}

	loadMode := "v6+heap"
	if backing != nil && backing.Mapped() {
		loadMode = "v6+mmap"
	}
	var files *[2]fileSum
	if meta.FirstFile != nil && meta.SecondFile != nil {
		files = &[2]fileSum{*meta.FirstFile, *meta.SecondFile}
	}
	snap := &Snapshot{
		sm: savedModel{
			Version:         savedModelVersionV6,
			Dim:             meta.Dim,
			FirstName:       meta.FirstName,
			SecondName:      meta.SecondName,
			VectorIDs:       docIDs,
			Arena:           docArena,
			Index:           meta.Index,
			HNSWM:           meta.HNSWM,
			HNSWEf:          meta.HNSWEf,
			HNSWEfConstruct: meta.HNSWEfConstruct,
			Seed:            meta.Seed,
			Deltas:          meta.Deltas,
			TermIDs:         termIDs,
			TermArena:       termArena,
			MaxNGram:        meta.MaxNGram,
			Staleness:       meta.Staleness,
		},
		v6:      &v6State{first: first, second: second},
		backing: backing,
		mode:    loadMode,
		files:   files,
	}
	// The arena lengths, the dimension and the HNSW parameters are checked
	// as for a gob payload.
	if err := snap.sm.check(); err != nil {
		return nil, err
	}
	return snap, nil
}

// OpenSnapshotFile opens a snapshot file of any supported version with
// eager verification: a v6 file is memory-mapped (PROT_READ, shared
// page cache across processes) and every section checksum is checked
// before it returns; gob files (v1–v5) decode through the classic path.
// The returned Snapshot pins the mapping; it is released only when the
// process exits (models bound from it alias the pages for their
// lifetime). LoadSnapshotFile runs the same checks beside the caller's
// corpus load and Bind instead of before them.
func OpenSnapshotFile(path string) (*Snapshot, error) {
	return OpenSnapshotFileVerify(path, VerifyEager)
}

// OpenSnapshotFileVerify is OpenSnapshotFile with an explicit
// VerifyMode: VerifyLazy skips the per-section payload checksums for
// the lowest possible cold start on files trusted by construction.
func OpenSnapshotFileVerify(path string, mode VerifyMode) (*Snapshot, error) {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	return openMapping(mf, mode)
}

// openMapping parses an opened snapshot file serially. A v6 Snapshot
// keeps the mapping; every other outcome releases it.
func openMapping(mf *mmapfile.Mapping, mode VerifyMode) (*Snapshot, error) {
	data := mf.Data()
	if isV6(data) {
		snap, err := parseV6(data, mode, mf)
		if err != nil {
			mf.Close()
			return nil, err
		}
		return snap, nil
	}
	// A gob snapshot: decode copies everything onto the heap, so the
	// mapping can be dropped immediately.
	snap, err := readGobSnapshot(bytes.NewReader(data))
	mf.Close()
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// LoadSnapshotFile opens the snapshot at path once and returns the
// model bind builds from it: with Snapshot.BindFiles, or by loading the
// corpora the snapshot names (Snapshot.Info) and Binding onto them.
//
// Under VerifyEager a v6 file's payload checks — the section checksums,
// then the cross-segment ID uniqueness — run on their own goroutine
// over the same mapping that the decode and bind read, so cold start
// costs about the longer of the two rather than their sum. The model is
// returned only after every check has passed, and a failed check is
// the error returned in place of any decode or bind error: a corrupt
// file fails with exactly the error OpenSnapshotFile gives. Binding
// bytes not yet verified is what VerifyLazy always does; the structural
// checks, which run first on every path, keep it from panicking.
// Snapshot.VerifyTime reports how long the checks took.
//
// Under VerifyLazy, and for gob files, it is the open, then bind. On any
// error the mapping is released and bind's model dropped, so bind must
// not keep the Snapshot, or anything it bound, past a failed load.
// LoadModelFile does not overlap the checks, because its Bind mutates
// corpora the caller owns.
func LoadSnapshotFile(path string, mode VerifyMode, bind func(*Snapshot) (*Model, error)) (*Model, error) {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	if mode != VerifyEager || !isV6(mf.Data()) {
		snap, err := openMapping(mf, mode)
		if err != nil {
			return nil, err
		}
		m, err := bind(snap)
		if err != nil {
			mf.Close()
			return nil, err
		}
		return m, nil
	}

	l, err := parseV6Layout(mf.Data())
	if err != nil {
		mf.Close()
		return nil, err
	}
	// The verifier checks uniqueness over the decoded segment IDs, which
	// arrive on decoded (nil when the decode failed) long before the
	// checksums finish.
	decoded := make(chan *v6State, 1)
	type verdict struct {
		err  error
		took time.Duration
	}
	verified := make(chan verdict, 1)
	go func() {
		start := time.Now()
		err := l.verifySums()
		if st := <-decoded; err == nil && st != nil {
			err = st.verifyUnique()
		}
		verified <- verdict{err, time.Since(start)}
	}()

	var m *Model
	snap, err := l.decode(mf)
	if err != nil {
		decoded <- nil
	} else {
		decoded <- snap.v6
		m, err = bind(snap)
	}
	// The mapping is released only after the verifier has stopped
	// reading it.
	v := <-verified
	if v.err != nil {
		err = v.err
	}
	if err != nil {
		mf.Close()
		return nil, err
	}
	snap.verifyTime = v.took
	return m, nil
}

// bindSegmentedV6 reconstructs both serving stacks from a v6 payload:
// sealed segments bind as borrowed (read-only, possibly mapped) arenas
// with no per-row work, the mutable delta is regathered onto the heap
// exactly like the gob path, and the stack's lookup maps are the only
// O(n) cost paid at bind.
func (m *Model) bindSegmentedV6(first, second []v6Segment) error {
	var err error
	if m.firstIdx, err = m.bindSideV6(0, first); err != nil {
		return err
	}
	m.secondIdx, err = m.bindSideV6(1, second)
	return err
}

// bindSideV6 assembles one side's segment stack from parsed v6
// segments (parseV6 guarantees at least a base and the delta), mirroring
// buildSide's layout decisions (base wrap, seal ordinals, delta
// regather) over borrowed arenas instead of regathered ones.
func (m *Model) bindSideV6(side int, segs []v6Segment) (*match.Segmented, error) {
	base, err := m.bindFlatV6(segs[0])
	if err != nil {
		return nil, err
	}
	baseIdx, err := m.bindSegmentV6(base, side, 0, segs[0])
	if err != nil {
		return nil, err
	}
	stack, err := match.NewSegmented(baseIdx, m.dim, m.sealFunc(side), m.cfg.SegmentMaxDocs)
	if err != nil {
		return nil, err
	}
	ordinal := 1
	for _, seg := range segs[1 : len(segs)-1] {
		if len(seg.ids) == 0 {
			continue // all-tombstoned segment, compacted away on restore
		}
		flat, err := m.bindFlatV6(seg)
		if err != nil {
			return nil, err
		}
		idx, err := m.bindSegmentV6(flat, side, ordinal, seg)
		if err != nil {
			return nil, err
		}
		if err := stack.AppendSealed(idx); err != nil {
			return nil, err
		}
		ordinal++
	}
	if delta := segs[len(segs)-1]; len(delta.ids) > 0 {
		if err := stack.Append(delta.ids, m.gatherArena(delta.ids)); err != nil {
			return nil, err
		}
	}
	return stack, nil
}

// bindFlatV6 builds the flat index of one sealed segment: borrowed
// over the section's normalized arena when present (zero copy), or an
// empty heap index for a rowless base.
func (m *Model) bindFlatV6(seg v6Segment) (*match.Index, error) {
	if seg.arena == nil && len(seg.ids) > 0 {
		// Only the base segment can reach here (middles with IDs always
		// carry an arena, parseV6 enforces it); regather defensively.
		return m.buildFlatIDs(seg.ids)
	}
	return match.NewIndexArenaBorrowed(seg.ids, seg.arena, m.dim)
}

// bindSegmentV6 wraps one sealed segment's flat index per the model's
// index kind, exactly as buildSide (ordinal 0, the base) and the seal
// hook (ordinal >= 1) would, adopting a serialized HNSW graph when the
// snapshot carries one.
func (m *Model) bindSegmentV6(flat *match.Index, side, ordinal int, seg v6Segment) (match.VectorIndex, error) {
	if m.cfg.Index == IndexHNSW && seg.levels != nil {
		return match.NewHNSWParts(flat, seg.levels, seg.offs, seg.adj, m.cfg.hnswOptions(side, ordinal))
	}
	return m.cfg.wrapSegment(flat, side, ordinal), nil
}
