package match

import (
	"fmt"
	"slices"
)

// fingerprintSeg tags Segmented fingerprints (see mixFingerprint).
const fingerprintSeg = 0x5e9

// SealFunc wraps a freshly sealed flat segment into its serving form —
// the model layer supplies the kind wrap (HNSW construction); ordinal
// is the segment's position in the stack, so wraps that need a seed can
// derive a deterministic one per segment.
type SealFunc func(flat *Index, ordinal int) VectorIndex

// Segmented is an LSM-style stack of index segments serving one logical
// VectorIndex: a list of sealed immutable segments (typically one large
// base from the last full build plus small sealed deltas) and one small
// mutable flat delta segment that absorbs appends. Removals of sealed
// rows never touch the shared segment storage — they land in a
// per-clone tombstone overlay — so Clone costs O(delta + tombstones)
// regardless of corpus size, which is what makes the serving layer's
// clone-mutate-swap ingest cheap at any scale.
//
// Queries fan out to every segment and merge the per-segment rankings
// under the global (score desc, ID asc) order. For exact segment kinds
// the merged ranking is bit-identical to a monolithic flat index over
// the same live rows: per-row scores do not depend on row placement,
// and each sealed segment is asked for k plus its tombstone count, so
// the union of per-segment answers provably contains the global top k.
type Segmented struct {
	dim    int
	sealed []sealedSeg // immutable, shared across clones
	delta  *Index      // mutable, owned by this clone

	// dead overlays tombstones onto sealed segments: the key names the
	// segment ordinal and document ID, so a document that is removed,
	// re-appended and sealed again can later be removed from its new
	// segment without resurrecting the old row.
	dead      map[deadKey]struct{}
	deadBySeg []int // tombstone count per sealed segment

	seal     SealFunc
	maxDelta int // auto-seal threshold in delta rows; <= 0 disables

	epoch uint64 // mutation counter, mixed into Fingerprint
}

type deadKey struct {
	seg int32
	id  string
}

type sealedSeg struct {
	idx  VectorIndex
	flat *Index // the segment's row storage, for ID membership lookups
}

var _ VectorIndex = (*Segmented)(nil)

// NewSegmented builds a segment stack with base as the sealed base
// segment (nil or empty for a from-empty stack) and an empty delta.
// seal wraps future sealed segments; maxDelta is the delta row count
// that triggers an automatic seal on Append (<= 0 never auto-seals).
func NewSegmented(base VectorIndex, dim int, seal SealFunc, maxDelta int) (*Segmented, error) {
	delta, err := newDelta(dim)
	if err != nil {
		return nil, err
	}
	s := &Segmented{
		dim:      dim,
		delta:    delta,
		dead:     map[deadKey]struct{}{},
		seal:     seal,
		maxDelta: maxDelta,
	}
	if base != nil {
		flat := segFlat(base)
		if flat == nil {
			return nil, fmt.Errorf("match: unsupported base segment type %T", base)
		}
		if flat.Dim() != dim {
			return nil, fmt.Errorf("match: base segment dim %d != %d", flat.Dim(), dim)
		}
		primeLookup(flat)
		s.sealed = []sealedSeg{{idx: base, flat: flat}}
		s.deadBySeg = []int{0}
	}
	return s, nil
}

// segFlat extracts the flat row storage backing any supported segment
// kind.
func segFlat(v VectorIndex) *Index {
	switch ix := v.(type) {
	case *Index:
		return ix
	case *HNSW:
		return ix.flat
	default:
		return nil
	}
}

// primeLookup forces the flat's lazy ID-position map to exist. Sealed
// segments are shared across clones and read concurrently, so the map
// must be materialized before the segment becomes immutable — after
// priming, lookup only reads.
func primeLookup(flat *Index) {
	flat.lookup("")
}

// newDelta returns an empty mutable delta segment with its position map
// primed: Has reads the delta's map beside concurrent queries, so no
// delta may build it lazily.
func newDelta(dim int) (*Index, error) {
	delta, err := NewIndexArena(nil, nil, dim)
	if err != nil {
		return nil, err
	}
	primeLookup(delta)
	return delta, nil
}

// Len returns the number of live documents across all segments.
func (s *Segmented) Len() int {
	n := s.delta.Len()
	for i, seg := range s.sealed {
		n += seg.idx.Len() - s.deadBySeg[i]
	}
	return n
}

// IDs returns the document IDs of every segment row in segment order
// (sealed stack first, then the delta), including tombstoned rows —
// like Index.IDs, Len reports the live count.
func (s *Segmented) IDs() []string {
	out := make([]string, 0, len(s.delta.IDs()))
	for _, seg := range s.sealed {
		out = append(out, seg.idx.IDs()...)
	}
	return append(out, s.delta.IDs()...)
}

// Rows returns the number of resident rows across all segments,
// tombstoned ones included (overlay and delta-internal alike): the
// length of IDs, counted without building it.
func (s *Segmented) Rows() int {
	n := s.delta.rows()
	for _, seg := range s.sealed {
		n += seg.flat.rows()
	}
	return n
}

// Dim returns the vector dimensionality.
func (s *Segmented) Dim() int { return s.dim }

// Segments returns the number of sealed segments in the stack.
func (s *Segmented) Segments() int { return len(s.sealed) }

// DeltaLen returns the number of live documents in the mutable delta
// segment.
func (s *Segmented) DeltaLen() int { return s.delta.Len() }

// Tombstones returns the number of sealed rows masked by the tombstone
// overlay (delta-internal tombstones not included).
func (s *Segmented) Tombstones() int { return len(s.dead) }

// Base returns the wrapped index of the base (oldest sealed) segment —
// the one carrying the configured index kind — or nil when the stack
// has no sealed segment yet. Tests and stats introspect through it.
func (s *Segmented) Base() VectorIndex {
	if len(s.sealed) == 0 {
		return nil
	}
	return s.sealed[0].idx
}

// SegmentManifest returns the live document IDs of every segment in
// stack order, the mutable delta last — the persistence layer's
// segment manifest. Tombstoned rows (overlay and delta-internal) are
// excluded, so concatenating the lists enumerates exactly the live
// documents.
func (s *Segmented) SegmentManifest() [][]string {
	out := make([][]string, 0, len(s.sealed)+1)
	for i, seg := range s.sealed {
		f := seg.flat
		ids := make([]string, 0, f.Len()-s.deadBySeg[i])
		for r := 0; r < f.rows(); r++ {
			if f.isDead(r) {
				continue
			}
			if _, gone := s.dead[deadKey{seg: int32(i), id: f.ids[r]}]; gone {
				continue
			}
			ids = append(ids, f.ids[r])
		}
		out = append(out, ids)
	}
	ids := make([]string, 0, s.delta.Len())
	for r := 0; r < s.delta.rows(); r++ {
		if !s.delta.isDead(r) {
			ids = append(ids, s.delta.ids[r])
		}
	}
	return append(out, ids)
}

// LiveIDs returns the live document IDs in stack order, the delta last:
// SegmentManifest's lists concatenated. A stack of one sealed segment
// with no tombstone and an empty delta (every built, compacted or
// freshly bound stack) returns that segment's own ID table, not a copy;
// callers must not mutate the result.
func (s *Segmented) LiveIDs() []string {
	if len(s.sealed) == 1 && s.deadBySeg[0] == 0 && s.sealed[0].flat.nDead == 0 && s.delta.rows() == 0 {
		return s.sealed[0].flat.ids
	}
	return slices.Concat(s.SegmentManifest()...)
}

// CleanSegment returns sealed segment i's serving index and row storage
// when the segment is clean — no row of it tombstoned, in the overlay or
// in its own storage, so its rows are exactly its SegmentManifest entry
// in order — and nils otherwise (tombstones, or i not a sealed ordinal).
// The persistence layer writes a clean segment's live arena, codes and
// graph as they stand; a segment with tombstones is regathered, because
// its saved form drops the dead rows.
func (s *Segmented) CleanSegment(i int) (VectorIndex, *Index) {
	if i < 0 || i >= len(s.sealed) || s.deadBySeg[i] > 0 || s.sealed[i].flat.nDead > 0 {
		return nil, nil
	}
	return s.sealed[i].idx, s.sealed[i].flat
}

// Fingerprint returns the serving-configuration digest of the stack:
// the segmented kind tag, shape, every segment's own fingerprint and
// the mutation epoch (every Append/Remove/Seal/Compact bumps it).
func (s *Segmented) Fingerprint() uint64 {
	parts := make([]uint64, 0, len(s.sealed)+5)
	parts = append(parts, fingerprintSeg, uint64(s.dim), uint64(len(s.sealed)),
		uint64(len(s.dead)), s.epoch)
	for _, seg := range s.sealed {
		parts = append(parts, seg.idx.Fingerprint())
	}
	parts = append(parts, s.delta.Fingerprint())
	return mixFingerprint(parts...)
}

// liveIn reports whether id is a live document of sealed segment i.
func (s *Segmented) liveIn(i int, id string) bool {
	if _, ok := s.sealed[i].flat.lookup(id); !ok {
		return false
	}
	_, gone := s.dead[deadKey{seg: int32(i), id: id}]
	return !gone
}

// Has reports whether id is a live document of any segment. It only
// reads, so it may run beside queries.
func (s *Segmented) Has(id string) bool {
	if _, ok := s.delta.lookup(id); ok {
		return true
	}
	for i := range s.sealed {
		if s.liveIn(i, id) {
			return true
		}
	}
	return false
}

// Append adds documents to the mutable delta segment (arena layout as
// in Index.Append). IDs must not collide with any live document of the
// stack; tombstoned IDs may be re-appended. When the delta reaches the
// auto-seal threshold it is sealed afterwards.
func (s *Segmented) Append(ids []string, arena []float32) error {
	for _, id := range ids {
		for i := range s.sealed {
			if s.liveIn(i, id) {
				return fmt.Errorf("match: append of already-indexed document %q", id)
			}
		}
	}
	if err := s.delta.Append(ids, arena); err != nil {
		return err
	}
	s.epoch++
	if s.maxDelta > 0 && s.delta.Len() >= s.maxDelta && s.seal != nil {
		return s.Seal()
	}
	return nil
}

// Remove tombstones the documents with the given IDs, returning how
// many were present. Delta rows are tombstoned in the delta itself;
// sealed rows land in the overlay — shared sealed storage is never
// written.
func (s *Segmented) Remove(ids []string) int {
	removed := 0
	for _, id := range ids {
		if n := s.delta.Remove([]string{id}); n > 0 {
			removed++
			continue
		}
		// Newest sealed segment first: at most one sealed occurrence is
		// live, but searching newest-first keeps the scan short for
		// recently sealed documents.
		for i := len(s.sealed) - 1; i >= 0; i-- {
			if s.liveIn(i, id) {
				s.dead[deadKey{seg: int32(i), id: id}] = struct{}{}
				s.deadBySeg[i]++
				removed++
				break
			}
		}
	}
	if removed > 0 {
		s.epoch++
	}
	return removed
}

// Seal freezes the current delta into a new sealed segment (compacting
// away delta-internal tombstones) and starts a fresh empty delta. An
// empty delta is a no-op. The sealed index is produced by the stack's
// SealFunc, or kept as the compacted flat when none is configured.
func (s *Segmented) Seal() error {
	if s.delta.Len() == 0 {
		if s.delta.rows() > 0 {
			// All-tombstone delta: drop the dead rows, keep the stack as is.
			delta, err := newDelta(s.dim)
			if err != nil {
				return err
			}
			s.delta = delta
			s.epoch++
		}
		return nil
	}
	flat, err := compactFlat(s.dim, []*Index{s.delta}, nil, nil)
	if err != nil {
		return err
	}
	idx := VectorIndex(flat)
	if s.seal != nil {
		idx = s.seal(flat, len(s.sealed))
	}
	sf := segFlat(idx)
	if sf == nil {
		return fmt.Errorf("match: seal produced unsupported segment type %T", idx)
	}
	primeLookup(sf)
	// The sealed slice is shared with clones; append via full copy so a
	// sibling clone sealing concurrently-cloned state never observes a
	// shared backing array write.
	s.sealed = append(append([]sealedSeg(nil), s.sealed...), sealedSeg{idx: idx, flat: sf})
	s.deadBySeg = append(append([]int(nil), s.deadBySeg...), 0)
	delta, err := newDelta(s.dim)
	if err != nil {
		return err
	}
	s.delta = delta
	s.epoch++
	return nil
}

// AppendSealed pushes a pre-built sealed segment onto the top of the
// stack without going through the delta — the snapshot binding path,
// which reconstructs sealed segments directly over mapped arenas. The
// segment must be a supported kind (Index or HNSW) of the stack's
// dimensionality; the caller guarantees its IDs do not collide with
// other segments (the snapshot writer serialized a consistent manifest,
// and section checksums reject torn files).
func (s *Segmented) AppendSealed(idx VectorIndex) error {
	sf := segFlat(idx)
	if sf == nil {
		return fmt.Errorf("match: append of unsupported sealed segment type %T", idx)
	}
	if sf.Dim() != s.dim {
		return fmt.Errorf("match: sealed segment dim %d on stack of dim %d", sf.Dim(), s.dim)
	}
	primeLookup(sf)
	s.sealed = append(append([]sealedSeg(nil), s.sealed...), sealedSeg{idx: idx, flat: sf})
	s.deadBySeg = append(append([]int(nil), s.deadBySeg...), 0)
	s.epoch++
	return nil
}

// Compact merges every live row of the stack into one sealed base
// segment (wrapped by the SealFunc with ordinal 0) plus a fresh empty
// delta, dropping all tombstones. Row order is segment order, which
// does not affect rankings: scores are per-row and ties break by ID.
func (s *Segmented) Compact() error {
	flats := make([]*Index, 0, len(s.sealed)+1)
	for _, seg := range s.sealed {
		flats = append(flats, seg.flat)
	}
	deadOf := func(seg int, id string) bool {
		_, gone := s.dead[deadKey{seg: int32(seg), id: id}]
		return gone
	}
	flat, err := compactFlat(s.dim, append(flats, s.delta), deadOf, []int{len(flats)})
	if err != nil {
		return err
	}
	idx := VectorIndex(flat)
	if s.seal != nil {
		idx = s.seal(flat, 0)
	}
	sf := segFlat(idx)
	if sf == nil {
		return fmt.Errorf("match: seal produced unsupported segment type %T", idx)
	}
	primeLookup(sf)
	s.sealed = []sealedSeg{{idx: idx, flat: sf}}
	s.deadBySeg = []int{0}
	s.dead = map[deadKey]struct{}{}
	delta, err := newDelta(s.dim)
	if err != nil {
		return err
	}
	s.delta = delta
	s.epoch++
	return nil
}

// compactFlat concatenates the live rows of the given flats into one
// fresh flat index. deadOf (optional) masks additional overlay
// tombstones by (segment ordinal, id); ordinals listed in deltaOrds
// are delta segments whose rows are never overlay-masked.
func compactFlat(dim int, flats []*Index, deadOf func(seg int, id string) bool, deltaOrds []int) (*Index, error) {
	isDelta := map[int]bool{}
	for _, o := range deltaOrds {
		isDelta[o] = true
	}
	var ids []string
	var arena []float32
	for si, f := range flats {
		for i := 0; i < f.rows(); i++ {
			if f.isDead(i) {
				continue
			}
			if deadOf != nil && !isDelta[si] && deadOf(si, f.ids[i]) {
				continue
			}
			ids = append(ids, f.ids[i])
			arena = append(arena, f.row(i)...)
		}
	}
	// The source rows are already normalized; adopt them as-is. Running
	// them through NewIndexArena would normalize a second time, which
	// perturbs low-order bits (‖v‖ rounds differently near 1) and breaks
	// the sealed-vs-monolithic bit-identity contract.
	if len(arena) != len(ids)*dim {
		return nil, fmt.Errorf("match: compacted arena holds %d floats for %d vectors of dim %d",
			len(arena), len(ids), dim)
	}
	return &Index{ids: ids, data: arena, dim: dim}, nil
}

// Clone returns an independent stack sharing the immutable sealed
// segments and deep-copying only the delta and the tombstone overlay —
// O(delta + tombstones), never O(corpus).
func (s *Segmented) Clone() *Segmented {
	delta := s.delta.Clone()
	primeLookup(delta)
	ns := &Segmented{
		dim:       s.dim,
		sealed:    s.sealed,
		delta:     delta,
		dead:      make(map[deadKey]struct{}, len(s.dead)),
		deadBySeg: append([]int(nil), s.deadBySeg...),
		seal:      s.seal,
		maxDelta:  s.maxDelta,
		epoch:     s.epoch,
	}
	for k := range s.dead {
		ns.dead[k] = struct{}{}
	}
	return ns
}

// TopK returns the k live documents most similar to query, best first
// with ID tie-breaking — the per-segment rankings merged under the
// global order.
func (s *Segmented) TopK(query []float32, k int) []Scored {
	return s.TopKBatch(oneQuery(query), k)[0]
}

// TopKBatch answers one TopK per query, position-aligned with queries.
// Each sealed segment is queried through its own batched kernel for k
// plus its tombstone count and overlay-tombstoned hits are filtered.
// A lone answering segment — every built, compacted or freshly bound
// stack is one sealed segment plus an empty delta — hands its rankings
// through trimmed to k; several merge k-way under (score desc, ID asc).
// For exact segment kinds the result is bit-identical to a monolithic
// flat index over the same live rows.
func (s *Segmented) TopKBatch(queries [][]float32, k int) [][]Scored {
	if k <= 0 || len(queries) == 0 {
		return make([][]Scored, len(queries))
	}
	// One ranking list per (segment, query); a single segment answers
	// the whole batch in one call to keep its blocked kernels hot. The
	// list of parts stays on the stack for the usual few segments.
	var partsBuf [4][][]Scored
	parts := partsBuf[:0]
	for i, seg := range s.sealed {
		if seg.idx.Len() == 0 {
			continue
		}
		res := seg.idx.TopKBatch(queries, k+s.deadBySeg[i])
		if s.deadBySeg[i] > 0 {
			for qi := range res {
				res[qi] = s.filterDead(i, res[qi])
			}
		}
		parts = append(parts, res)
	}
	if s.delta.Len() > 0 {
		parts = append(parts, s.delta.TopKBatch(queries, k))
	}
	switch len(parts) {
	case 0:
		return make([][]Scored, len(queries))
	case 1:
		out := parts[0]
		for qi, r := range out {
			if len(r) > k {
				out[qi] = r[:k:k]
			}
		}
		return out
	}
	return mergeSorted(parts, k)
}

// filterDead drops overlay-tombstoned hits of sealed segment i from a
// ranking, in place.
func (s *Segmented) filterDead(i int, ranked []Scored) []Scored {
	live := ranked[:0]
	for _, r := range ranked {
		if _, gone := s.dead[deadKey{seg: int32(i), id: r.ID}]; !gone {
			live = append(live, r)
		}
	}
	return live
}

// mergeSorted merges, query by query, the per-segment rankings of
// parts (parts[segment][query], each best-first) into the first k of
// their union under (score desc, ID asc) — the order every index kind
// produces, so a k-way merge of the list heads yields it without a
// sort. A live ID is in at most one segment, so the union has no
// duplicates. The merged rankings are cut from one slab, each capped at
// its own length.
func mergeSorted(parts [][][]Scored, k int) [][]Scored {
	out := make([][]Scored, len(parts[0]))
	total := 0
	for qi := range out {
		n := 0
		for _, p := range parts {
			n += len(p[qi])
		}
		total += min(n, k)
	}
	slab := make([]Scored, 0, total)
	heads := make([][]Scored, len(parts))
	for qi := range out {
		for pi, p := range parts {
			heads[pi] = p[qi]
		}
		lo := len(slab)
		for len(slab)-lo < k {
			best := -1
			for pi, h := range heads {
				if len(h) > 0 && (best < 0 || rankedBefore(h[0], heads[best][0])) {
					best = pi
				}
			}
			if best < 0 {
				break
			}
			slab = append(slab, heads[best][0])
			heads[best] = heads[best][1:]
		}
		if hi := len(slab); hi > lo {
			out[qi] = slab[lo:hi:hi]
		}
	}
	return out
}

// rankedBefore reports whether a ranks ahead of b: higher score, or
// equal score and smaller ID.
func rankedBefore(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}
