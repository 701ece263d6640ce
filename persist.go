package tdmatch

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"github.com/tdmatch/tdmatch/internal/match"
	"github.com/tdmatch/tdmatch/internal/mmapfile"
	"github.com/tdmatch/tdmatch/internal/wal"
)

// savedModel is the gob-encoded form of a trained model: the learned
// document vectors plus enough metadata to validate a reload and rebuild
// the configured serving indexes. The graph itself is not persisted — it
// is only needed for training.
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

const savedModelVersion = 5

// Save writes the trained document embeddings (as one contiguous arena)
// and the serving-index configuration to w. The graph is not saved; a
// loaded model can match but not retrain.
func (m *Model) Save(w io.Writer) error {
	ids := make([]string, 0, len(m.vectors))
	for id := range m.vectors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Gather rows into the snapshot arena with one copy per document; the
	// map values are views into the trainer's flat arena (or a loaded
	// snapshot's), and short/missing rows stay zero-padded.
	arena := make([]float32, len(ids)*m.dim)
	for i, id := range ids {
		copy(arena[i*m.dim:(i+1)*m.dim], m.vectors[id])
	}
	termIDs, termArena := m.termVectors()
	enc := gob.NewEncoder(w)
	return enc.Encode(savedModel{
		Version:         savedModelVersion,
		Dim:             m.dim,
		FirstName:       m.first.Name(),
		SecondName:      m.second.Name(),
		VectorIDs:       ids,
		Arena:           arena,
		Index:           uint8(m.cfg.Index),
		HNSWM:           m.cfg.HNSWM,
		HNSWEf:          m.cfg.HNSWEf,
		HNSWEfConstruct: m.cfg.HNSWEfConstruct,
		Seed:            m.cfg.Seed,
		Deltas:          m.deltas,
		TermIDs:         termIDs,
		TermArena:       termArena,
		MaxNGram:        m.cfg.MaxNGram,
		Staleness:       m.Staleness(),
		FirstSegments:   m.savedSegments(m.firstIdx),
		SecondSegments:  m.savedSegments(m.secondIdx),
	})
}

// savedSegments captures a side's serving segment stack for a v5
// snapshot: one live-ID list per segment in stack order (mutable delta
// last), each checksummed together with the vector rows it will rebind
// to. Nil when the side serves an unsegmented index.
func (m *Model) savedSegments(idx match.VectorIndex) []savedSegment {
	seg, ok := idx.(*match.Segmented)
	if !ok {
		return nil
	}
	manifest := seg.SegmentManifest()
	out := make([]savedSegment, len(manifest))
	for i, ids := range manifest {
		out[i] = savedSegment{IDs: ids, Checksum: segmentChecksum(ids, m.vectors, m.dim)}
	}
	return out
}

// segmentChecksum digests one segment manifest entry with FNV-1a 64:
// per ID, the ID bytes, a NUL separator, then the dim float32 bits of
// its vector row little-endian (zero bits past the stored row length,
// matching the zero-padding Save applies to the snapshot arena).
func segmentChecksum(ids []string, vectors map[string][]float32, dim int) uint64 {
	const (
		offset64 = uint64(14695981039346656037)
		prime64  = uint64(1099511628211)
	)
	h := offset64
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, id := range ids {
		for i := 0; i < len(id); i++ {
			mix(id[i])
		}
		mix(0)
		v := vectors[id]
		for j := 0; j < dim; j++ {
			var bits uint32
			if j < len(v) {
				bits = math.Float32bits(v[j])
			}
			mix(byte(bits))
			mix(byte(bits >> 8))
			mix(byte(bits >> 16))
			mix(byte(bits >> 24))
		}
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
	if len(sm.Arena) != len(sm.VectorIDs)*sm.Dim {
		return fmt.Errorf("tdmatch: arena holds %d floats for %d vectors of dim %d",
			len(sm.Arena), len(sm.VectorIDs), sm.Dim)
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

// termVectors gathers the trained term (data and external node) vectors
// of the fold state for the snapshot, sorted by term for determinism;
// nil when the model has none (restored from a snapshot without them).
func (m *Model) termVectors() ([]string, []float32) {
	if m.fold == nil {
		return nil, nil
	}
	terms := m.fold.terms
	ids := make([]string, 0, len(terms))
	for term := range terms {
		ids = append(ids, term)
	}
	sort.Strings(ids)
	arena := make([]float32, len(ids)*m.dim)
	for i, term := range ids {
		copy(arena[i*m.dim:(i+1)*m.dim], terms[term])
	}
	return ids, arena
}

// SaveFile writes the model to a file, atomically: the snapshot is
// written and fsynced to a sidecar (path + ".tmp"), renamed into
// place, and the parent directory is fsynced, so a crash mid-save (or
// right after the rename) leaves either the previous or the new
// snapshot intact — never a truncated file or a lost rename. This is
// the invariant the serving WAL's checkpoint protocol depends on
// (Server.Checkpoint rotates the log only after this returns).
func (m *Model) SaveFile(path string) error {
	return saveFileAtomic(path, m.Save)
}

// saveFileAtomic runs the atomic-replace protocol against the real
// filesystem.
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

// LoadModel reads embeddings written by Save and reconstructs a matcher
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
}

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

// ReadSnapshot decodes a payload written by Save or SaveV6 without
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

// readGobSnapshot decodes a gob (version 1–5) snapshot payload.
func readGobSnapshot(r io.Reader) (*Snapshot, error) {
	var sm savedModel
	if err := gob.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("tdmatch: decoding model: %w", err)
	}
	if sm.Version < 1 || sm.Version > savedModelVersion {
		return nil, fmt.Errorf("tdmatch: unsupported model version %d", sm.Version)
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
	docs := len(s.sm.VectorIDs)
	if s.sm.Version < 2 {
		docs = len(s.sm.Vectors)
	}
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
		Docs:            docs,
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
// restored model supports fold-in Ingest.
func (s *Snapshot) Bind(first, second *Corpus) (*Model, error) {
	if first == nil || second == nil {
		return nil, fmt.Errorf("tdmatch: Bind requires two corpora")
	}
	sm := &s.sm
	if sm.FirstName != first.Name() || sm.SecondName != second.Name() {
		return nil, fmt.Errorf("tdmatch: model was trained on corpora %q/%q, got %q/%q",
			sm.FirstName, sm.SecondName, first.Name(), second.Name())
	}
	for _, delta := range sm.Deltas {
		for _, sd := range delta.Added {
			c := first.c
			if sd.Side == 2 {
				c = second.c
			}
			if _, present := c.Doc(sd.ID); present {
				continue
			}
			if err := c.Append(documentOfSaved(sd)); err != nil {
				return nil, fmt.Errorf("tdmatch: applying snapshot delta: %w", err)
			}
		}
		// One compaction pass per side and record; unknown IDs (the other
		// side's) are ignored by RemoveBatch.
		first.c.RemoveBatch(delta.Removed)
		second.c.RemoveBatch(delta.Removed)
	}
	vectors := sm.Vectors
	if sm.Version >= 2 {
		if len(sm.Arena) != len(sm.VectorIDs)*sm.Dim {
			return nil, fmt.Errorf("tdmatch: arena holds %d floats for %d vectors of dim %d",
				len(sm.Arena), len(sm.VectorIDs), sm.Dim)
		}
		vectors = make(map[string][]float32, len(sm.VectorIDs))
		for i, id := range sm.VectorIDs {
			vectors[id] = sm.Arena[i*sm.Dim : (i+1)*sm.Dim : (i+1)*sm.Dim]
		}
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
	m := &Model{
		cfg:     cfg,
		first:   first,
		second:  second,
		dim:     sm.Dim,
		vectors: vectors,
		deltas:  sm.Deltas,
		// The whole restored delta chain is already reflected in the saved
		// vectors; only the snapshot's own staleness figure carries over.
		folded:    len(sm.Deltas),
		staleBase: sm.Staleness,
	}
	if len(sm.TermIDs) > 0 {
		if len(sm.TermArena) != len(sm.TermIDs)*sm.Dim {
			return nil, fmt.Errorf("tdmatch: term arena holds %d floats for %d terms of dim %d",
				len(sm.TermArena), len(sm.TermIDs), sm.Dim)
		}
		terms := make(map[string][]float32, len(sm.TermIDs))
		for i, term := range sm.TermIDs {
			terms[term] = sm.TermArena[i*sm.Dim : (i+1)*sm.Dim : (i+1)*sm.Dim]
		}
		m.fold = &foldState{pre: preprocessor(cfg.MaxNGram), terms: terms}
	}
	// A version-6 snapshot binds its sealed segments directly onto the
	// loaded (usually mapped) arenas; a version-5 one restores its
	// serving segment boundaries by regathering; older payloads (nil
	// manifests) rebuild one monolithic base segment.
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

// LoadModelFile reads a model from a file written by SaveFile or
// SaveFileV6, auto-detecting the format: a v6 snapshot is
// memory-mapped and bound zero-copy (the mapping stays pinned for the
// model's lifetime), gob versions decode through the classic path.
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
// by Save. It reads (and discards) the full payload, but skips index
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
// SaveFile.
func ReadModelInfoFile(path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, err
	}
	defer f.Close()
	return ReadModelInfo(f)
}
