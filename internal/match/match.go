// Package match implements the unsupervised matching step of the paper's
// §IV-B: given embeddings for metadata nodes, rank the documents of the
// second corpus by cosine similarity for every document of the first
// corpus, returning the top-k. It also provides the score-averaging
// combination with a second embedder evaluated in Fig. 10.
//
// Two index kinds serve the ranking: the exact Index, a flat scan over
// one contiguous vector arena, and HNSW, a graph index with an exact
// re-rank. Both satisfy VectorIndex, the pluggable serving interface,
// and Segmented stacks them into one mutable serving index.
package match

import (
	"fmt"
	"math"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// Scored is one ranked candidate. It is also the public tdmatch.Match
// (a type alias, so rankings reach callers without a copy): its fields,
// JSON form and equality are public API, and it must not gain fields for
// the kernels' own use. TestMatchFields in the root package pins them.
type Scored struct {
	// ID is the matched document's ID.
	ID string
	// Score is the cosine similarity in [-1, 1].
	Score float64
}

// String renders the candidate as "id(score)" with three decimals, the
// format the CLIs print.
func (s Scored) String() string { return fmt.Sprintf("%s(%.3f)", s.ID, s.Score) }

// VectorIndex is the pluggable serving interface for top-k retrieval:
// given a (not necessarily normalized) query vector, return the k most
// cosine-similar indexed documents, best first, with deterministic ID
// tie-breaking. Implementations are safe for concurrent queries once
// built; Append and Remove are not safe concurrently with queries —
// the serving layer mutates a clone and swaps it in atomically.
type VectorIndex interface {
	// Len returns the number of live (not removed) indexed documents.
	Len() int
	// IDs returns the indexed document IDs in index order, including
	// tombstoned entries of removed documents (which never surface in
	// rankings).
	IDs() []string
	// Dim returns the vector dimensionality.
	Dim() int
	// TopK returns the k targets most similar to query, best first.
	TopK(query []float32, k int) []Scored
	// TopKBatch answers one TopK per query in a single blocked pass over
	// the index, position-aligned with queries and identical to calling
	// TopK per query. Implementations amortize one arena read across the
	// whole batch.
	TopKBatch(queries [][]float32, k int) [][]Scored
	// Append adds documents to the index: arena is row-major with
	// vector i at arena[i*Dim() : (i+1)*Dim()] (copied, then normalized
	// like built rows). IDs must not collide with live indexed IDs.
	Append(ids []string, arena []float32) error
	// Remove tombstones the documents with the given IDs and returns how
	// many were present. Tombstoned rows stop appearing in rankings but
	// keep their storage until the index is rebuilt (Compact).
	Remove(ids []string) int
	// Fingerprint returns a stable 64-bit digest of the index's serving
	// configuration: implementation kind, corpus size, dimensionality,
	// (for approximate indexes) the search parameters and construction
	// seed, and the mutation epoch — every Append/Remove bumps it.
	// Serving-layer result caches include it in their keys, so selecting
	// a differently-configured index — or mutating one — invalidates
	// every cached ranking without an explicit flush.
	Fingerprint() uint64
}

var _ VectorIndex = (*Index)(nil)

// Index holds the match targets: document IDs with their normalized
// embedding vectors, stored in one contiguous arena so the scan is a
// sequential sweep over memory. Build once, query many times; the
// incremental ingest path appends rows at the arena's tail and removes
// documents by tombstoning their row (zeroed storage, skipped by every
// selection path) — reclaiming tombstones is a rebuild.
type Index struct {
	ids  []string
	data []float32 // row-major arena: vector i is data[i*dim : (i+1)*dim]
	dim  int

	pos   map[string]int32 // id -> live row, built lazily on first mutation
	dead  []bool           // tombstones, nil until the first Remove
	nDead int
	epoch uint64 // mutation counter, mixed into Fingerprint

	// borrowed marks data as read-only storage owned by someone else —
	// typically a PROT_READ mmap of a snapshot section. Queries read it
	// in place (zero-copy); the first mutating call (Append/Remove)
	// promotes the arena to a private heap copy instead of writing
	// through, so the backing file and every other process mapping it
	// stay untouched.
	borrowed bool
}

// NewIndex builds an index over target documents. Vectors are copied into
// the arena and normalized so queries reduce to dot products; nil vectors
// become zero vectors (they score 0 against everything).
func NewIndex(ids []string, vecs [][]float32, dim int) (*Index, error) {
	if len(ids) != len(vecs) {
		return nil, fmt.Errorf("match: %d ids for %d vectors", len(ids), len(vecs))
	}
	if dim <= 0 {
		return nil, fmt.Errorf("match: non-positive dimension %d", dim)
	}
	arena := make([]float32, len(ids)*dim)
	for i, v := range vecs {
		copy(arena[i*dim:(i+1)*dim], v)
	}
	return NewIndexArena(ids, arena, dim)
}

// NewIndexArena builds an index that adopts the given row-major arena
// (vector i at arena[i*dim : (i+1)*dim]) instead of copying per-row
// vectors — the zero-copy path for callers that already hold their
// vectors contiguously, like the pipeline gathering rows from the
// embedding arena. Rows are normalized in place; the caller must not read
// or mutate arena afterwards.
func NewIndexArena(ids []string, arena []float32, dim int) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("match: non-positive dimension %d", dim)
	}
	if len(arena) != len(ids)*dim {
		return nil, fmt.Errorf("match: arena holds %d floats for %d vectors of dim %d", len(arena), len(ids), dim)
	}
	idx := &Index{
		ids:  append([]string(nil), ids...),
		data: arena,
		dim:  dim,
	}
	for i := range ids {
		embed.Normalize(idx.row(i))
	}
	return idx, nil
}

// NewIndexArenaBorrowed builds an index over a read-only, already
// normalized row-major arena without copying or re-normalizing it —
// the zero-copy binding path for snapshot sections mapped with
// PROT_READ. The arena must hold rows exactly as a built index stores
// them (normalized, tombstones zeroed); the caller keeps the backing
// memory alive for the index's lifetime. Mutations never write
// through: the first Append/Remove promotes the arena to a private
// heap copy (see promote).
func NewIndexArenaBorrowed(ids []string, arena []float32, dim int) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("match: non-positive dimension %d", dim)
	}
	if len(arena) != len(ids)*dim {
		return nil, fmt.Errorf("match: arena holds %d floats for %d vectors of dim %d", len(arena), len(ids), dim)
	}
	return &Index{
		ids:      append([]string(nil), ids...),
		data:     arena,
		dim:      dim,
		borrowed: true,
	}, nil
}

// Borrowed reports whether the arena is still read-only borrowed
// backing (no mutation has promoted it to a heap copy yet).
func (x *Index) Borrowed() bool { return x.borrowed }

// promote copies a borrowed arena to private heap storage before the
// first in-place mutation. Until it runs, the index never writes to
// data, so a mapped snapshot section stays byte-identical on disk and
// shared across processes.
func (x *Index) promote() {
	if !x.borrowed {
		return
	}
	x.data = append([]float32(nil), x.data...)
	x.borrowed = false
}

// row returns the mutable arena slice of vector i.
func (x *Index) row(i int) []float32 { return x.data[i*x.dim : (i+1)*x.dim] }

// rows returns the number of arena rows, including tombstoned ones —
// the iteration bound of every scan.
func (x *Index) rows() int { return len(x.ids) }

// isDead reports whether row i is tombstoned.
func (x *Index) isDead(i int) bool { return x.dead != nil && x.dead[i] }

// Arena returns the contiguous normalized-vector storage in index order.
// Callers must not mutate it.
func (x *Index) Arena() []float32 { return x.data }

// Len returns the number of live indexed documents (appended rows
// count, tombstoned ones do not).
func (x *Index) Len() int { return len(x.ids) - x.nDead }

// IDs returns the indexed document IDs in index order.
func (x *Index) IDs() []string { return x.ids }

// Dim returns the vector dimensionality.
func (x *Index) Dim() int { return x.dim }

// Fingerprint returns the serving-configuration digest of the flat
// index: its kind tag, size, dimensionality and mutation epoch. Every
// Append/Remove bumps the epoch, so fingerprint-keyed result caches
// can never serve a ranking computed before a mutation. Two virgin flat
// indexes over equally many vectors of equal dimension share a
// fingerprint — callers caching results across distinct models must mix
// in their own model identity.
func (x *Index) Fingerprint() uint64 {
	return mixFingerprint(fingerprintFlat, uint64(len(x.ids)), uint64(x.dim), x.epoch)
}

// negInf is the sentinel score tombstoned rows receive inside the
// selection kernels: any live cosine score (>= -1) beats it, so dead
// rows can flow through the tiled scoring unmodified and still never
// surface in a ranking.
var negInf = float32(math.Inf(-1))

// lookup resolves a live document ID to its arena row, building the
// position map on first use (virgin read-only indexes never pay for it).
func (x *Index) lookup(id string) (int32, bool) {
	if x.pos == nil {
		x.pos = make(map[string]int32, len(x.ids))
		for i, docID := range x.ids {
			if !x.isDead(i) {
				x.pos[docID] = int32(i)
			}
		}
	}
	p, ok := x.pos[id]
	return p, ok
}

// Append adds documents at the arena's tail: arena is row-major with
// vector i at arena[i*dim : (i+1)*dim]; rows are copied and normalized
// exactly like built rows (nil-padded zero rows score 0). IDs must not
// collide with live indexed IDs — a previously removed ID may be
// re-appended.
func (x *Index) Append(ids []string, arena []float32) error {
	if len(arena) != len(ids)*x.dim {
		return fmt.Errorf("match: append arena holds %d floats for %d vectors of dim %d", len(arena), len(ids), x.dim)
	}
	for _, id := range ids {
		if _, live := x.lookup(id); live {
			return fmt.Errorf("match: append of already-indexed document %q", id)
		}
	}
	x.promote()
	base := len(x.ids)
	x.ids = append(x.ids, ids...)
	x.data = append(x.data, arena...)
	if x.dead != nil {
		x.dead = append(x.dead, make([]bool, len(ids))...)
	}
	for i, id := range ids {
		p := base + i
		embed.Normalize(x.row(p))
		x.pos[id] = int32(p)
	}
	x.epoch++
	return nil
}

// Remove tombstones the documents with the given IDs, returning how
// many were present: their rows are zeroed and skipped by every
// selection path, their IDs freed for re-append. Storage is reclaimed
// only by rebuilding the index.
func (x *Index) Remove(ids []string) int {
	removed := 0
	for _, id := range ids {
		p, ok := x.lookup(id)
		if !ok {
			continue
		}
		x.promote()
		if x.dead == nil {
			x.dead = make([]bool, len(x.ids))
		}
		x.dead[p] = true
		x.nDead++
		removed++
		delete(x.pos, id)
		row := x.row(int(p))
		for d := range row {
			row[d] = 0
		}
	}
	if removed > 0 {
		x.epoch++
	}
	return removed
}

// Clone returns an independent deep copy: the ingest clone-mutate-swap
// path appends to the clone while the original keeps serving queries.
func (x *Index) Clone() *Index {
	nx := &Index{
		ids:   append([]string(nil), x.ids...),
		data:  append([]float32(nil), x.data...),
		dim:   x.dim,
		nDead: x.nDead,
		epoch: x.epoch,
	}
	if x.dead != nil {
		nx.dead = append([]bool(nil), x.dead...)
	}
	return nx
}

// fingerprintFlat tags flat digests (each kind has its own tag), keeping
// them disjoint from other kinds' even for equal size/dimension
// parameters.
const fingerprintFlat uint64 = 0xf1a7 // "flat"

// mixFingerprint folds the parts into one 64-bit digest with the
// splitmix64 finalizer, which diffuses single-bit parameter changes
// (e.g. rerank 4 → 5) across the whole word.
func mixFingerprint(parts ...uint64) uint64 {
	h := uint64(0x6d617463685f6670) // "match_fp"
	for _, p := range parts {
		h = splitmix(h ^ p)
	}
	return h
}

// splitmix is the splitmix64 step behind fingerprints and HNSW's seeded
// level draws.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Score returns the cosine similarity between the (not necessarily
// normalized) query vector and target i.
func (x *Index) Score(query []float32, i int) float64 {
	qn := embed.Norm(query)
	if qn == 0 {
		return 0
	}
	return float64(embed.Dot(query, x.row(i))) / float64(qn)
}

// TopK returns the k targets most similar to query, best first. Ties break
// by ID for determinism. It is the single-query case of the blocked
// TopKBatch kernel: a direct tiled scan over the arena into a sorted-run
// selector, with no per-row closure or interface call.
func (x *Index) TopK(query []float32, k int) []Scored {
	return x.TopKBatch(oneQuery(query), k)[0]
}

// oneQuery wraps a single query vector for the batch kernel without
// allocating: the one-element backing array stays on the caller's stack.
func oneQuery(query []float32) [][]float32 {
	return [][]float32{query}
}

// TopKCombined ranks targets by the weighted mean of this index's score for
// queryA and other's score for queryB — the Fig. 10 combination of graph
// embeddings with a pre-trained sentence embedder. Both indexes must be
// built over the same ID sequence.
func (x *Index) TopKCombined(other *Index, queryA, queryB []float32, wA, wB float64, k int) ([]Scored, error) {
	if other == nil || other.rows() != x.rows() {
		return nil, fmt.Errorf("match: combined indexes differ in size")
	}
	for i := range x.ids {
		if x.ids[i] != other.ids[i] {
			return nil, fmt.Errorf("match: combined indexes disagree at position %d: %s vs %s", i, x.ids[i], other.ids[i])
		}
	}
	qa := make([]float32, x.dim)
	copy(qa, queryA)
	embed.Normalize(qa)
	qb := make([]float32, other.dim)
	copy(qb, queryB)
	embed.Normalize(qb)
	total := wA + wB
	if total == 0 {
		total = 1
	}
	scored := TopKFunc(x.ids, func(i int) float64 {
		if x.isDead(i) {
			return math.Inf(-1)
		}
		sa := float64(embed.Dot(qa, x.row(i)))
		sb := float64(embed.Dot(qb, other.row(i)))
		return (wA*sa + wB*sb) / total
	}, k)
	// Tombstoned rows surface only when k exceeds the live count; their
	// -Inf sentinel scores sort last and are trimmed here.
	for len(scored) > 0 && math.IsInf(scored[len(scored)-1].Score, -1) {
		scored = scored[:len(scored)-1]
	}
	return scored, nil
}

// TopKFunc selects the k highest-scoring ids, best first, with ID
// tie-breaking, through the sorted run every exact ranking path uses.
func TopKFunc(ids []string, score func(i int) float64, k int) []Scored {
	if k <= 0 || len(ids) == 0 {
		return nil
	}
	k = min(k, len(ids))
	r := topkRun[float64]{run: make([]ranked[float64], k), ids: ids}
	for i := range ids {
		r.consider(score(i), int32(i))
	}
	return r.results(make([]Scored, r.n))
}

// topKPositions selects the k candidates (given as arena positions) most
// similar to the normalized query, best first with ID tie-breaking. Rows
// are scored in one call of the same kernel as the tiled full scan, so
// scattered-position rankings (blocking, HNSW re-rank) agree with it
// bit-for-bit; IDs are resolved only for the <= k selected rows.
func (x *Index) topKPositions(q []float32, positions []int32, k int) []Scored {
	if k <= 0 || len(positions) == 0 {
		return nil
	}
	k = min(k, len(positions))
	sc := leaseScan()
	defer sc.release()
	r := &sc.selectors(1, k, x.ids)[0]
	sc.tile = grow(sc.tile, len(positions))
	x.dotPositions(positions, q, sc.tile, posInf)
	for j, p := range positions {
		if !x.isDead(int(p)) {
			r.consider(sc.tile[j], p)
		}
	}
	return r.results(make([]Scored, r.n))
}

// IDsOf projects the candidate IDs of a ranking.
func IDsOf(ranked []Scored) []string {
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.ID
	}
	return out
}
