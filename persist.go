package tdmatch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
	"unsafe"

	"github.com/tdmatch/tdmatch/internal/fnv1a"
	"github.com/tdmatch/tdmatch/internal/mmapfile"
	"github.com/tdmatch/tdmatch/internal/wal"
)

// savedModel is the decoded form of a snapshot: the learned document
// vectors plus enough metadata to validate a reload and rebuild the
// configured serving indexes. Gob snapshots (versions 1–5, read only)
// decode into it whole; a v6 file fills its metadata and, on a heap
// bind, its arenas. The graph itself is not persisted — it is only
// needed for training.
//
// Version 5 adds the per-side segment manifests: each side's serving
// segment stack as lists of live document IDs with FNV-1a checksums
// over the IDs and vector rows. ReadSnapshot validates the checksums
// up front, so a truncated or corrupted payload fails cleanly before
// Bind mutates any corpus state, and Bind rebuilds the stack with its
// saved segment boundaries instead of one monolithic base. Older
// payloads decode with nil manifests and bind as before.
// Version 4 adds the incremental-ingest payload: the delta chain
// (base + deltas — documents ingested into or removed from the model
// since the base corpora were written, re-applied at Bind so a
// snapshot stays loadable against the pre-ingest corpus files), the
// trained term vectors (TermIDs + TermArena) that make a restored
// model fold-in ingestable, the tokenizer's MaxNGram and the staleness
// counter. Version 3 added the re-rank parameter of a since-removed
// index kind, which decoding skips.
// Version 2 stores the vectors as one contiguous arena (VectorIDs +
// Arena) matching the in-memory index layout; version 1 payloads with
// the per-document Vectors map are still readable.
type savedModel struct {
	Version    int
	Dim        int
	FirstName  string
	SecondName string

	// Vectors is the version-1 per-document encoding (nil in v2 payloads).
	Vectors map[string][]float32

	// VectorIDs and Arena are the version-2 encoding: document i's vector
	// is Arena[i*Dim : (i+1)*Dim], IDs sorted for determinism. The arena
	// covers every current document, ingested ones included.
	VectorIDs []string
	Arena     []float32

	// Serving-index choice, restored into the loaded model's Config. Seed
	// is included so an HNSW graph is re-built exactly as the saved
	// model's was. The HNSW knobs are newer additions to the version-5
	// layout: gob leaves them zero — meaning the defaults — when decoding
	// older payloads. Payloads of a removed kind also carry its
	// parameters, which decoding skips (see indexKind).
	Index           uint8
	HNSWM           int
	HNSWEf          int
	HNSWEfConstruct int
	Seed            int64

	// Deltas is the version-4 delta chain, oldest first.
	Deltas []savedDelta
	// TermIDs and TermArena are the version-4 trained term vectors
	// (term i's vector is TermArena[i*Dim : (i+1)*Dim]), enabling
	// fold-in ingest on a restored model.
	TermIDs   []string
	TermArena []float32
	// MaxNGram is the tokenizer's term length bound, needed to tokenize
	// fold-in ingested documents exactly like the build did.
	MaxNGram int
	// Staleness is the delta-document count not yet folded into a full
	// retrain at save time.
	Staleness int

	// FirstSegments / SecondSegments are the version-5 segment
	// manifests (sealed segments in stack order, the mutable delta
	// last); nil in older payloads or when a side serves unsegmented.
	FirstSegments  []savedSegment
	SecondSegments []savedSegment
}

// savedSegment is one serving segment in a version-5 manifest.
type savedSegment struct {
	// IDs are the segment's live document IDs, in row order.
	IDs []string
	// Checksum digests the IDs and their vector rows (FNV-1a over ID
	// bytes and float bits), validated by ReadSnapshot before Bind.
	Checksum uint64
}

// savedDelta is one Ingest or Remove call in the persistence delta
// chain: ingested documents travel with their content (the corpus
// files on disk predate them), removals by ID.
type savedDelta struct {
	Added   []savedDoc
	Removed []string
}

// savedDoc is one ingested document's persisted content.
type savedDoc struct {
	Side    uint8
	ID      string
	Parent  string
	Columns []string
	Texts   []string
}

// savedModelVersion is the newest gob snapshot version ReadSnapshot
// accepts. Gob snapshots are read only: SaveV6 writes every snapshot.
const savedModelVersion = 5

// segmentChecksum digests one segment manifest entry with FNV-1a 64:
// per ID, the ID bytes, a NUL separator, then the dim float32 bits of
// its vector row little-endian (zero bits past the stored row length,
// matching the zero-padding of the snapshot arena).
func segmentChecksum(ids []string, vectors map[string][]float32, dim int) uint64 {
	h := fnv1a.Offset
	var rec []byte
	for _, id := range ids {
		rec = append(append(rec[:0], id...), 0)
		v := vectors[id]
		for j := 0; j < dim; j++ {
			var bits uint32
			if j < len(v) {
				bits = math.Float32bits(v[j])
			}
			rec = binary.LittleEndian.AppendUint32(rec, bits)
		}
		h = fnv1a.Update(h, rec)
	}
	return h
}

// validateSegments checks a version-5 payload's segment manifests
// against its vector arena: every ID must be unique within its side and
// every segment checksum must match the recomputed digest, so a
// truncated or bit-flipped payload fails the load up front — before
// Bind mutates any corpus state.
func (sm *savedModel) validateSegments() error {
	if len(sm.FirstSegments) == 0 && len(sm.SecondSegments) == 0 {
		return nil
	}
	vectors := make(map[string][]float32, len(sm.VectorIDs))
	for i, id := range sm.VectorIDs {
		vectors[id] = sm.Arena[i*sm.Dim : (i+1)*sm.Dim]
	}
	for side, segs := range [][]savedSegment{sm.FirstSegments, sm.SecondSegments} {
		seen := make(map[string]struct{})
		for si, seg := range segs {
			for _, id := range seg.IDs {
				if _, dup := seen[id]; dup {
					return fmt.Errorf("tdmatch: corrupt snapshot: document %q appears in two side-%d segments",
						id, side+1)
				}
				seen[id] = struct{}{}
			}
			if got := segmentChecksum(seg.IDs, vectors, sm.Dim); got != seg.Checksum {
				return fmt.Errorf("tdmatch: corrupt snapshot: side-%d segment %d/%d checksum mismatch",
					side+1, si+1, len(segs))
			}
		}
	}
	return nil
}

// maxHNSWKnob bounds the HNSW parameters Build accepts and a snapshot
// may carry: a graph build allocates M links per row and
// EfConstruct-wide beams, and a query beam adds the tombstone count to
// Ef, so a forged value would be an unbounded allocation or an
// overflow. No graph needs more.
const maxHNSWKnob = 1 << 16

// check validates the shape of a decoded payload, of any version, before
// Bind can touch a corpus. Dim must be the length of the stored rows:
// the arena holds exactly one Dim-float row per document ID (and the
// term arena one per term), and at least one document is stored, so
// every per-document allocation of the bind is bounded by the payload.
// HNSW parameters above maxHNSWKnob are refused; zero and negative ones
// select the defaults.
func (sm *savedModel) check() error {
	if sm.Dim <= 0 || len(sm.VectorIDs) == 0 {
		return fmt.Errorf("tdmatch: corrupt snapshot: %d vectors of dimension %d", len(sm.VectorIDs), sm.Dim)
	}
	if !holdsRows(sm.Arena, len(sm.VectorIDs), sm.Dim) {
		return fmt.Errorf("tdmatch: arena holds %d floats for %d vectors of dim %d",
			len(sm.Arena), len(sm.VectorIDs), sm.Dim)
	}
	if !holdsRows(sm.TermArena, len(sm.TermIDs), sm.Dim) {
		return fmt.Errorf("tdmatch: term arena holds %d floats for %d terms of dim %d",
			len(sm.TermArena), len(sm.TermIDs), sm.Dim)
	}
	if max(sm.HNSWM, sm.HNSWEf, sm.HNSWEfConstruct) > maxHNSWKnob {
		return fmt.Errorf("tdmatch: corrupt snapshot: HNSW parameters %d/%d/%d exceed %d",
			sm.HNSWM, sm.HNSWEf, sm.HNSWEfConstruct, maxHNSWKnob)
	}
	return nil
}

// holdsRows reports whether arena is exactly n rows of dim > 0 floats,
// without the overflow n*dim can take on forged values.
func holdsRows(arena []float32, n, dim int) bool {
	return len(arena)%dim == 0 && len(arena)/dim == n
}

// arenaOfV1 converts a version-1 payload's per-document map into the
// sorted ID list and arena of later versions. Dim must be the longest
// stored row; shorter rows are zero-padded, as the bind pads them.
func (sm *savedModel) arenaOfV1() error {
	longest := 0
	for _, v := range sm.Vectors {
		longest = max(longest, len(v))
	}
	if longest != sm.Dim {
		return fmt.Errorf("tdmatch: corrupt snapshot: dimension %d, longest stored vector %d", sm.Dim, longest)
	}
	sm.VectorIDs = slices.Sorted(maps.Keys(sm.Vectors))
	sm.Arena = make([]float32, len(sm.VectorIDs)*sm.Dim)
	for i, id := range sm.VectorIDs {
		copy(sm.Arena[i*sm.Dim:], sm.Vectors[id])
	}
	sm.Vectors = nil
	return nil
}

// termVectors returns the fold state's trained term table as a snapshot
// stores it: the terms, strictly increasing, and their vectors in that
// order. Both are the live, read-only table. Nil when the model has none
// (restored from a snapshot without them).
func (m *Model) termVectors() ([]string, []float32) {
	if m.fold == nil {
		return nil, nil
	}
	return m.fold.ids, m.fold.arena
}

// checkTermOrder rejects a stored term table that is not strictly
// increasing: fold-in finds terms by binary search, and every writer
// has stored sorted, unique terms.
func checkTermOrder(ids []string) error {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return fmt.Errorf("tdmatch: corrupt snapshot: term table not strictly increasing at entry %d", i)
		}
	}
	return nil
}

// saveFileAtomic writes a snapshot file atomically against the real
// filesystem: the snapshot is written and fsynced to a sidecar (path +
// ".tmp"), renamed into place, and the parent directory is fsynced, so
// a crash mid-save (or right after the rename) leaves either the
// previous or the new snapshot intact — never a truncated file or a
// lost rename. This is the invariant the serving WAL's checkpoint
// protocol depends on (Server.Checkpoint rotates the log only after the
// save returns).
func saveFileAtomic(path string, save func(io.Writer) error) error {
	return saveFileFS(path, wal.OSFS{}, save)
}

// saveFileFS is the atomic snapshot-replace protocol over the wal.FS
// seam — write to a ".tmp" sidecar, fsync the file, rename into place,
// fsync the parent directory — factored out so the crash fuzzer can
// drive it on the fault-injecting MemFS. Without the final directory
// fsync the rename itself can be lost on power failure (the classic
// atomic-replace bug); TestSaveFileSyncsDirOnCrash pins it.
func saveFileFS(path string, fsys wal.FS, save func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// LoadModel reads a snapshot written by SaveV6 (or a legacy gob one,
// versions 1–5) and reconstructs a matcher
// over the same two corpora, rebuilding the serving indexes the model was
// saved with. The corpora must be the ones the model was trained on
// (names are checked; document IDs missing a stored vector are matched as
// zero vectors, exactly as after training). To inspect a snapshot before
// committing to corpora — or to avoid decoding twice when both metadata
// and model are needed — use ReadSnapshot.
func LoadModel(r io.Reader, first, second *Corpus) (*Model, error) {
	snap, err := ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return snap.Bind(first, second)
}

// Snapshot is a decoded model payload not yet bound to its corpora: the
// intermediate state of a serving daemon that must learn the corpus
// names from the snapshot before it can load the corpora themselves.
// Decode once with ReadSnapshot (or zero-copy via OpenSnapshotFile),
// inspect with Info, then Bind.
type Snapshot struct {
	sm savedModel

	// v6 is the zero-copy payload of a format-6 snapshot (nil for gob
	// versions); backing is the mapping its arenas alias, pinned here
	// until Bind hands it to the Model. mode records how the payload was
	// loaded, see LoadMode.
	v6      *v6State
	backing *mmapfile.Mapping
	mode    string
	// verifyTime is how long LoadSnapshotFile's verifier ran.
	verifyTime time.Duration
	// files is the corpus file fingerprint a v6 snapshot records, nil
	// when it records none (and for gob versions).
	files *[2]fileSum
}

// VerifyTime reports how long the eager payload checks of a v6 snapshot
// took on their own goroutine beside the bind, once LoadSnapshotFile has
// returned its model. It is zero for a snapshot opened any other way,
// under VerifyLazy and for gob files.
func (s *Snapshot) VerifyTime() time.Duration { return s.verifyTime }

// LoadMode reports how the snapshot payload was loaded: "gob" (decoded
// copy, versions 1–5), "v6+mmap" (zero-copy PROT_READ mapping) or
// "v6+heap" (v6 layout read into an aligned heap buffer — stream
// reads, or platforms without mmap).
func (s *Snapshot) LoadMode() string {
	if s.mode == "" {
		return "gob"
	}
	return s.mode
}

// ReadSnapshot decodes a payload written by SaveV6, or a legacy gob one
// (versions 1–5), without
// reconstructing the serving indexes, auto-detecting the format by
// magic. Bind turns it into a servable Model. Reading a v6 payload
// from a stream copies it onto the heap; use OpenSnapshotFile to get
// the zero-copy mapped path.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(v6Magic)); err == nil && bytes.Equal(magic, []byte(v6Magic)) {
		raw, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("tdmatch: reading v6 snapshot: %w", err)
		}
		// The reader casts sections in place; heap buffers from ReadAll
		// are not guaranteed 8-byte aligned, so realign if needed.
		data := raw
		if len(raw) > 0 && uintptr(unsafe.Pointer(&raw[0]))%8 != 0 {
			data = mmapfile.AlignedBuffer(len(raw))
			copy(data, raw)
		}
		return parseV6(data, VerifyEager, nil)
	}
	return readGobSnapshot(br)
}

// readGobSnapshot decodes a gob (version 1–5) snapshot payload and
// validates it whole, so a corrupt one fails before Bind mutates any
// corpus state.
func readGobSnapshot(r io.Reader) (*Snapshot, error) {
	var sm savedModel
	if err := gob.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("tdmatch: decoding model: %w", err)
	}
	if sm.Version < 1 || sm.Version > savedModelVersion {
		return nil, fmt.Errorf("tdmatch: unsupported model version %d", sm.Version)
	}
	if sm.Version == 1 {
		if err := sm.arenaOfV1(); err != nil {
			return nil, err
		}
	}
	if err := sm.check(); err != nil {
		return nil, err
	}
	if err := checkTermOrder(sm.TermIDs); err != nil {
		return nil, err
	}
	if err := sm.validateSegments(); err != nil {
		return nil, err
	}
	return &Snapshot{sm: sm}, nil
}

// indexKind resolves the persisted index kind to the one Bind serves.
// Every removed kind (removedIndexKinds) searched the stored arena it
// was built over, so its snapshots serve that arena as an exact flat
// scan; legacy names the removed kind, empty for a serving kind.
func (sm *savedModel) indexKind() (kind IndexKind, legacy string) {
	if name, removed := removedIndexKinds[IndexKind(sm.Index)]; removed {
		return IndexFlat, name
	}
	return IndexKind(sm.Index), ""
}

// Info returns the snapshot's metadata.
func (s *Snapshot) Info() ModelInfo {
	deltaDocs := 0
	for _, d := range s.sm.Deltas {
		deltaDocs += len(d.Added) + len(d.Removed)
	}
	kind, legacy := s.sm.indexKind()
	return ModelInfo{
		Version:         s.sm.Version,
		Dim:             s.sm.Dim,
		FirstName:       s.sm.FirstName,
		SecondName:      s.sm.SecondName,
		Docs:            len(s.sm.VectorIDs),
		Index:           kind,
		LegacyIndex:     legacy,
		HNSWM:           s.sm.HNSWM,
		HNSWEf:          s.sm.HNSWEf,
		HNSWEfConstruct: s.sm.HNSWEfConstruct,
		DeltaDocs:       deltaDocs,
		Staleness:       s.sm.Staleness,
	}
}

// Bind reconstructs the matcher over its corpora, rebuilding the serving
// indexes the model was saved with (the LoadModel back half). The corpora
// must carry the names the model was trained under. A version-4
// snapshot's delta chain is re-applied to the given corpora in order —
// ingested documents are appended (skipped when already present, for
// callers whose corpus files were refreshed), removed ones deleted — so
// a snapshot saved after live ingests binds correctly against the
// pre-ingest corpus files. When the snapshot stores term vectors the
// restored model supports fold-in Ingest. The model keeps the corpus
// file fingerprint the snapshot records, whichever corpora it is given.
func (s *Snapshot) Bind(first, second *Corpus) (*Model, error) {
	if first == nil || second == nil {
		return nil, fmt.Errorf("tdmatch: Bind requires two corpora")
	}
	sm := &s.sm
	if sm.FirstName != first.Name() || sm.SecondName != second.Name() {
		return nil, fmt.Errorf("tdmatch: model was trained on corpora %q/%q, got %q/%q",
			sm.FirstName, sm.SecondName, first.Name(), second.Name())
	}
	if err := s.checkChain(); err != nil {
		return nil, err
	}
	if err := applyDeltas(first, second, sm.Deltas); err != nil {
		return nil, err
	}
	return s.bind(&Model{first: first, second: second})
}

// BindFiles binds the snapshot to the corpus files at firstPath and
// secondPath, read under the names the snapshot records. When the
// snapshot is a v6 file that records the fingerprint (size and CRC32C)
// of the files its base corpora were read from, and both files match
// it, the model is bound without parsing them: queries never read a
// corpus, and the first Ingest, Remove or Compact parses them into the
// model it mutates, re-checks them and applies the delta chain as Bind
// does. Any other snapshot or file pair is parsed and bound with Bind,
// and then checked to cover the snapshot (see checkCoverage): wrong
// files fail here instead of serving errors.
//
// The returned note says which path ran, for the start-up log:
// "corpora deferred (fingerprint match)", or "corpora parsed in T"
// followed by the reason.
func (s *Snapshot) BindFiles(firstPath, secondPath string) (*Model, string, error) {
	files := &corpusFiles{
		names: [2]string{s.sm.FirstName, s.sm.SecondName},
		paths: [2]string{firstPath, secondPath},
	}
	why, err := s.parseReason(files.paths)
	if err != nil {
		return nil, "", err
	}
	if why == "" {
		if err := s.checkChain(); err != nil {
			return nil, "", err
		}
		m, err := s.bind(&Model{deferred: files})
		return m, "corpora deferred (fingerprint match)", err
	}
	start := time.Now()
	cs, err := files.load()
	if err != nil {
		return nil, "", err
	}
	parsed := time.Since(start)
	m, err := s.Bind(cs[0], cs[1])
	if err != nil {
		return nil, "", err
	}
	if err := m.checkCoverage(cs[0], cs[1]); err != nil {
		return nil, "", err
	}
	return m, fmt.Sprintf("corpora parsed in %s (%s)", parsed.Round(time.Microsecond), why), nil
}

// sideNames names the two corpora in errors and notes.
var sideNames = [2]string{"first", "second"}

// parseReason says why BindFiles must parse the corpus files at paths
// before binding, or returns "" when both match the snapshot's
// fingerprint.
func (s *Snapshot) parseReason(paths [2]string) (string, error) {
	switch {
	case s.v6 == nil:
		return "gob snapshot", nil
	case s.files == nil:
		return "snapshot records no corpus fingerprint", nil
	}
	for side, path := range paths {
		sum, err := sumFile(path)
		if err != nil {
			return "", fmt.Errorf("tdmatch: loading %s corpus: %w", sideNames[side], err)
		}
		if sum != s.files[side] {
			return sideNames[side] + " corpus file differs from the snapshot's fingerprint", nil
		}
	}
	return "", nil
}

// bind completes m, which carries either its corpora (the delta chain
// applied) or, for a v6 snapshot only, the deferred corpus files, with
// the snapshot's vectors, configuration and serving indexes.
func (s *Snapshot) bind(m *Model) (*Model, error) {
	sm := &s.sm
	vectors := make(map[string][]float32, len(sm.VectorIDs))
	for i, id := range sm.VectorIDs {
		vectors[id] = sm.Arena[i*sm.Dim : (i+1)*sm.Dim : (i+1)*sm.Dim]
	}
	cfg := Defaults()
	cfg.Index, _ = sm.indexKind()
	cfg.HNSWM = sm.HNSWM
	cfg.HNSWEf = sm.HNSWEf
	cfg.HNSWEfConstruct = sm.HNSWEfConstruct
	cfg.Seed = sm.Seed
	if sm.MaxNGram > 0 {
		cfg.MaxNGram = sm.MaxNGram
	}
	m.cfg = cfg
	m.files = s.files
	m.dim = sm.Dim
	m.vectors = vectors
	m.deltas = sm.Deltas
	// The whole restored delta chain is already reflected in the saved
	// vectors; only the snapshot's own staleness figure carries over.
	m.folded = len(sm.Deltas)
	m.staleBase = sm.Staleness
	if len(sm.TermIDs) > 0 {
		m.fold = &foldState{pre: preprocessor(cfg.MaxNGram), ids: sm.TermIDs, arena: sm.TermArena}
	}
	// A version-6 snapshot binds its sealed segments directly onto the
	// loaded (usually mapped) arenas; a version-5 one restores its
	// serving segment boundaries by regathering; older payloads (nil
	// manifests) rebuild one monolithic base segment over the corpora.
	if s.v6 != nil {
		m.backing = s.backing
		if err := m.bindSegmentedV6(s.v6.first, s.v6.second); err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := m.buildSegmentedIndexes(segmentIDs(sm.FirstSegments), segmentIDs(sm.SecondSegments)); err != nil {
		return nil, err
	}
	return m, nil
}

// checkChain refuses a delta chain that disagrees with the snapshot's
// segment manifests, before anything is bound or any corpus touched:
// the last operation the chain records on an ID must leave it where the
// manifests put it — an ID removed last in no manifest, an ID added
// last in a manifest of its own side. A chain that removes a document
// its manifest still lists would otherwise bind and keep serving it.
// Snapshots older than version 5 carry no manifest: their stacks are
// built over the corpora the chain is applied to. A model without a
// chain pays nothing.
func (s *Snapshot) checkChain() error {
	sm := &s.sm
	if len(sm.Deltas) == 0 {
		return nil
	}
	var manifests [2][][]string
	switch {
	case s.v6 != nil:
		for side, segs := range [2][]v6Segment{s.v6.first, s.v6.second} {
			for _, seg := range segs {
				manifests[side] = append(manifests[side], seg.ids)
			}
		}
	case len(sm.FirstSegments) > 0 || len(sm.SecondSegments) > 0:
		manifests = [2][][]string{segmentIDs(sm.FirstSegments), segmentIDs(sm.SecondSegments)}
	default:
		return nil
	}
	// last maps every ID the chain touches to the side its last
	// operation leaves it on: 1 or 2 when added, 0 when removed.
	last := make(map[string]int)
	for _, d := range sm.Deltas {
		for _, sd := range d.Added {
			last[sd.ID] = 1
			if sd.Side == 2 {
				last[sd.ID] = 2
			}
		}
		for _, id := range d.Removed {
			last[id] = 0
		}
	}
	for side, segs := range manifests {
		for _, ids := range segs {
			for _, id := range ids {
				at, ok := last[id]
				switch {
				case !ok:
				case at == 0:
					return fmt.Errorf("tdmatch: corrupt snapshot: the delta chain removes %q, which a %s segment manifest still lists",
						id, sideNames[side])
				case at != side+1:
					return fmt.Errorf("tdmatch: corrupt snapshot: the delta chain adds %q to the %s corpus, but a %s segment manifest lists it",
						id, sideNames[at-1], sideNames[side])
				default:
					delete(last, id)
				}
			}
		}
	}
	for _, d := range sm.Deltas {
		for _, sd := range d.Added {
			if at := last[sd.ID]; at != 0 {
				return fmt.Errorf("tdmatch: corrupt snapshot: the delta chain adds %q, which no %s segment manifest lists",
					sd.ID, sideNames[at-1])
			}
		}
	}
	return nil
}

// applyDeltas re-applies a delta chain to the base corpora in order:
// ingested documents are appended (skipped when already present),
// removed ones deleted.
func applyDeltas(first, second *Corpus, deltas []savedDelta) error {
	for _, delta := range deltas {
		for _, sd := range delta.Added {
			c := first.c
			if sd.Side == 2 {
				c = second.c
			}
			if _, present := c.Doc(sd.ID); present {
				continue
			}
			if err := c.Append(documentOfSaved(sd)); err != nil {
				return fmt.Errorf("tdmatch: applying snapshot delta: %w", err)
			}
		}
		// One compaction pass per side and record; unknown IDs (the other
		// side's) are ignored by RemoveBatch.
		first.c.RemoveBatch(delta.Removed)
		second.c.RemoveBatch(delta.Removed)
	}
	return nil
}

// corpusFiles names the corpus files of a model bound without parsing
// them: the names the snapshot trained them under, and their paths.
type corpusFiles struct {
	names [2]string
	paths [2]string
}

// load parses the two files under their names.
func (f *corpusFiles) load() ([2]*Corpus, error) {
	var cs [2]*Corpus
	for side, path := range f.paths {
		c, err := loadCorpusFile(path, f.names[side])
		if err != nil {
			return cs, fmt.Errorf("tdmatch: loading %s corpus: %w", sideNames[side], err)
		}
		cs[side] = c
	}
	return cs, nil
}

// corpusNames returns the names of the model's two corpora.
func (m *Model) corpusNames() (first, second string) {
	if m.deferred != nil {
		return m.deferred.names[0], m.deferred.names[1]
	}
	return m.first.Name(), m.second.Name()
}

// readCorpora parses the corpus files of a model bound without them
// into it, before the model's first mutation reads them: it applies the
// delta chain as Bind does and, unless both files still match the
// recorded fingerprint, checks that they cover the model. A failure
// leaves the model deferred and fails the mutation. It does nothing for
// a model that has its corpora.
func (m *Model) readCorpora() error {
	if m.deferred == nil {
		return nil
	}
	start := time.Now()
	cs, err := m.deferred.load()
	if err != nil {
		return err
	}
	same := m.files != nil && *cs[0].file == m.files[0] && *cs[1].file == m.files[1]
	if err := applyDeltas(cs[0], cs[1], m.deltas); err != nil {
		return err
	}
	if !same {
		if err := m.checkCoverage(cs[0], cs[1]); err != nil {
			return err
		}
	}
	m.first, m.second, m.deferred = cs[0], cs[1], nil
	m.parseTime = time.Since(start)
	return nil
}

// loadCorpusFile is the parse corpusFiles.load runs, LoadCorpus; tests
// count the parses through it.
var loadCorpusFile = LoadCorpus

// CorpusParseTime reports how long this model spent parsing its corpus
// files when Snapshot.BindFiles bound it without them and a mutation
// (Ingest, Remove or Compact) then needed them. It is zero for every
// other model, and for a clone of this one.
func (m *Model) CorpusParseTime() time.Duration { return m.parseTime }

// checkCoverage checks that corpora parsed from files describe the
// model just bound from a snapshot, which no mutation has changed yet.
// A caller that names the corpora from the snapshot's own metadata gets
// no protection from Bind's name check when pointed at the wrong files,
// but wrong files show up as stored vectors that resolve to no
// document, or as a corpus none of whose documents has a vector.
// Refusing beats silently serving errors (or, worse, rankings from
// another dataset).
func (m *Model) checkCoverage(first, second *Corpus) error {
	if stored, total := len(m.vectors), first.Len()+second.Len(); stored > total {
		return fmt.Errorf("tdmatch: snapshot stores %d vectors but the corpora hold only %d documents — wrong corpus files?",
			stored, total)
	}
	for _, c := range []*Corpus{first, second} {
		if !slices.ContainsFunc(c.IDs(), func(id string) bool { return m.vectors[id] != nil }) {
			return fmt.Errorf("tdmatch: no document of corpus %q has a stored vector — wrong corpus files for this snapshot?",
				c.Name())
		}
	}
	return nil
}

// segmentIDs strips the checksums off a validated manifest, leaving the
// per-segment ID lists buildSegmentedIndexes consumes.
func segmentIDs(segs []savedSegment) [][]string {
	if len(segs) == 0 {
		return nil
	}
	out := make([][]string, len(segs))
	for i, s := range segs {
		out[i] = s.IDs
	}
	return out
}

// LoadModelFile reads a model from a file written by SaveFileV6, or a
// legacy gob snapshot, auto-detecting the format: a v6 snapshot is
// memory-mapped and bound zero-copy (the mapping stays pinned for the
// model's lifetime), gob versions decode through the read-only legacy
// path.
// Verification finishes before Bind starts: Bind applies the snapshot's
// delta chain to first and second, which the caller owns, so a corrupt
// file must be rejected before they are touched. A caller that loads
// fresh corpora for the snapshot overlaps the two with LoadSnapshotFile.
func LoadModelFile(path string, first, second *Corpus) (*Model, error) {
	snap, err := OpenSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return snap.Bind(first, second)
}

// ModelInfo describes a saved model snapshot without reconstructing its
// serving indexes — the metadata a serving daemon needs to validate a
// snapshot against its corpora and report what it is serving.
type ModelInfo struct {
	// Version is the snapshot format version (1 through 6; 6 is the
	// flat memory-mappable layout, earlier versions are gob).
	Version int
	// Dim is the embedding dimensionality.
	Dim int
	// FirstName / SecondName are the corpus names the model was trained
	// on; LoadModel refuses corpora under different names.
	FirstName  string
	SecondName string
	// Docs is the number of stored document vectors (both sides).
	Docs int
	// Index is the serving-index kind the snapshot binds as; HNSWM /
	// HNSWEf / HNSWEfConstruct (0 = defaults) are its parameters under
	// IndexHNSW.
	Index IndexKind
	// LegacyIndex names the removed index kind ("ivf" or "sq8") a
	// snapshot was saved with, and is empty otherwise. Index then reports
	// IndexFlat, because the stored arena is served by an exact flat
	// scan.
	LegacyIndex     string
	HNSWM           int
	HNSWEf          int
	HNSWEfConstruct int
	// DeltaDocs counts the documents in the snapshot's delta chain
	// (ingested plus removed since the base corpora); Staleness is the
	// saved model's un-compacted delta count.
	DeltaDocs int
	Staleness int
}

// ReadModelInfo decodes only the snapshot metadata from a stream written
// by SaveV6 (or a legacy gob one). It reads (and discards) the full payload, but skips index
// reconstruction; callers that will also load the model should decode
// once via ReadSnapshot instead.
func ReadModelInfo(r io.Reader) (ModelInfo, error) {
	snap, err := ReadSnapshot(r)
	if err != nil {
		return ModelInfo{}, err
	}
	return snap.Info(), nil
}

// ReadModelInfoFile reads the snapshot metadata from a file written by
// SaveFileV6 (or a legacy gob one).
func ReadModelInfoFile(path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, err
	}
	defer f.Close()
	return ReadModelInfo(f)
}
