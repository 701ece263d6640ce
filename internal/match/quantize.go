package match

import (
	"fmt"
	"math"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// IndexSQ8 is a scalar-quantized serving index: each normalized target
// vector is stored as int8 codes with one float32 dequantization scale
// per row, shrinking the scanned arena 4x — on corpora larger than the
// cache, the exact scan is memory-bandwidth-bound, so the quantized
// scan moves a quarter of the bytes per query. A query is first ranked
// approximately over the int8 codes (integer kernel), then the top
// Rerank()*k candidates are re-scored exactly against the retained
// float32 arena, which restores near-perfect recall while keeping the
// bulk of the scan cheap. Ties break by ascending ID in both phases,
// so rankings are deterministic like every other kernel path.
type IndexSQ8 struct {
	flat   *Index
	codes  []int8    // row-major quantized arena, aligned with flat's rows
	scales []float32 // per-row dequantization scale: value ~= code * scale
	rerank int

	// borrowed marks codes and scales as read-only storage owned by a
	// mapped snapshot section; the first mutation promotes both to heap
	// copies instead of writing through (same contract as Index.borrowed).
	borrowed bool
}

var _ VectorIndex = (*IndexSQ8)(nil)

// DefaultSQ8Rerank is the re-rank candidate multiplier used when none
// is configured: the quantized scan hands 4*k candidates to the exact
// re-rank, which holds recall@10 >= 0.99 on the paper's corpora.
const DefaultSQ8Rerank = 4

// NewIndexSQ8 quantizes the flat index's normalized rows to int8. The
// flat index is retained (not copied): the exact re-rank scores
// candidates straight out of its arena, and Flat exposes it for exact
// paths. rerank <= 0 selects DefaultSQ8Rerank.
func NewIndexSQ8(flat *Index, rerank int) *IndexSQ8 {
	if rerank <= 0 {
		rerank = DefaultSQ8Rerank
	}
	n, dim := flat.rows(), flat.dim
	x := &IndexSQ8{
		flat:   flat,
		codes:  make([]int8, n*dim),
		scales: make([]float32, n),
		rerank: rerank,
	}
	for i := 0; i < n; i++ {
		x.scales[i] = quantizeRow(flat.row(i), x.codes[i*dim:(i+1)*dim])
	}
	return x
}

// quantizeRow symmetrically quantizes v into int8 codes spanning
// [-127, 127] and returns the dequantization scale (0 for zero rows,
// whose codes stay all-zero and score 0 against everything, exactly
// like their float rows).
func quantizeRow(v []float32, out []int8) float32 {
	var maxAbs float32
	for _, f := range v {
		if f < 0 {
			f = -f
		}
		if f > maxAbs {
			maxAbs = f
		}
	}
	if maxAbs == 0 {
		return 0
	}
	inv := 127 / maxAbs
	for d, f := range v {
		c := math.Round(float64(f * inv))
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		}
		out[d] = int8(c)
	}
	return maxAbs / 127
}

// NewIndexSQ8Parts builds a quantized index that adopts precomputed
// codes and scales instead of re-quantizing — the zero-copy binding
// path for snapshot sections, where the codes were produced by the
// same deterministic quantizeRow at save time. codes and scales may be
// read-only borrowed backing (e.g. a PROT_READ mmap): mutations
// promote them to heap copies first. rerank <= 0 selects
// DefaultSQ8Rerank.
func NewIndexSQ8Parts(flat *Index, codes []int8, scales []float32, rerank int) (*IndexSQ8, error) {
	if rerank <= 0 {
		rerank = DefaultSQ8Rerank
	}
	n, dim := flat.rows(), flat.dim
	if len(codes) != n*dim {
		return nil, fmt.Errorf("match: sq8 codes hold %d bytes for %d rows of dim %d", len(codes), n, dim)
	}
	if len(scales) != n {
		return nil, fmt.Errorf("match: sq8 scales hold %d entries for %d rows", len(scales), n)
	}
	return &IndexSQ8{flat: flat, codes: codes, scales: scales, rerank: rerank, borrowed: true}, nil
}

// promote copies borrowed code/scale storage to private heap slices
// before the first in-place mutation, so a mapped snapshot section is
// never written through.
func (x *IndexSQ8) promote() {
	if !x.borrowed {
		return
	}
	x.codes = append([]int8(nil), x.codes...)
	x.scales = append([]float32(nil), x.scales...)
	x.borrowed = false
}

// Codes returns the row-major int8 code arena, aligned with the flat
// index's rows. Callers must not mutate it; the snapshot writer
// serializes it directly.
func (x *IndexSQ8) Codes() []int8 { return x.codes }

// Scales returns the per-row dequantization scales. Callers must not
// mutate them.
func (x *IndexSQ8) Scales() []float32 { return x.scales }

// Flat returns the exact index the quantized index was built over.
func (x *IndexSQ8) Flat() *Index { return x.flat }

// Append adds documents to the underlying flat index and
// quantize-and-appends their int8 codes and scales, so the quantized
// scan covers the new rows without re-quantizing the existing ones.
func (x *IndexSQ8) Append(ids []string, arena []float32) error {
	base := x.flat.rows()
	if err := x.flat.Append(ids, arena); err != nil {
		return err
	}
	x.promote()
	dim := x.flat.dim
	x.codes = append(x.codes, make([]int8, len(ids)*dim)...)
	x.scales = append(x.scales, make([]float32, len(ids))...)
	for i := range ids {
		p := base + i
		x.scales[p] = quantizeRow(x.flat.row(p), x.codes[p*dim:(p+1)*dim])
	}
	return nil
}

// Remove tombstones the documents in the underlying flat index and
// zeroes their codes and scales, so the quantized scan scores them 0
// and the selection kernels (which consult the flat tombstones) never
// let them into the re-rank pool.
func (x *IndexSQ8) Remove(ids []string) int {
	var positions []int32
	for _, id := range ids {
		if p, ok := x.flat.lookup(id); ok {
			positions = append(positions, p)
		}
	}
	removed := x.flat.Remove(ids)
	if len(positions) > 0 {
		x.promote()
	}
	dim := x.flat.dim
	for _, p := range positions {
		row := x.codes[int(p)*dim : (int(p)+1)*dim]
		for d := range row {
			row[d] = 0
		}
		x.scales[p] = 0
	}
	return removed
}

// CloneWithFlat returns an SQ8 index over the given clone of the
// underlying flat index, deep-copying the mutable code and scale
// arenas — the ingest clone-mutate-swap path.
func (x *IndexSQ8) CloneWithFlat(flat *Index) *IndexSQ8 {
	return &IndexSQ8{
		flat:   flat,
		codes:  append([]int8(nil), x.codes...),
		scales: append([]float32(nil), x.scales...),
		rerank: x.rerank,
	}
}

// Rerank returns the re-rank candidate multiplier: the quantized scan
// selects Rerank()*k candidates for the exact float32 re-rank.
func (x *IndexSQ8) Rerank() int { return x.rerank }

// Len returns the number of indexed documents.
func (x *IndexSQ8) Len() int { return x.flat.Len() }

// IDs returns the indexed document IDs in index order.
func (x *IndexSQ8) IDs() []string { return x.flat.IDs() }

// Dim returns the vector dimensionality.
func (x *IndexSQ8) Dim() int { return x.flat.Dim() }

// fingerprintSQ8 is the kind tag keeping SQ8 digests disjoint from flat
// and HNSW ones.
const fingerprintSQ8 uint64 = 0x5c8

// Fingerprint returns the serving-configuration digest of the quantized
// index: the underlying flat fingerprint mixed with the SQ8 kind tag
// and the re-rank multiplier, so re-tuning the rerank knob invalidates
// fingerprint-keyed result caches.
func (x *IndexSQ8) Fingerprint() uint64 {
	return mixFingerprint(fingerprintSQ8, x.flat.Fingerprint(), uint64(x.rerank))
}

// TopK returns the k targets most similar to query, best first with ID
// tie-breaking: a quantized scan for Rerank()*k candidates, then an
// exact re-rank.
func (x *IndexSQ8) TopK(query []float32, k int) []Scored {
	return x.TopKBatch(oneQuery(query), k)[0]
}

// TopKBatch answers one TopK per query in a single blocked pass over
// the quantized arena, position-aligned with queries and identical to
// calling TopK per query. Each int8 tile is scored for every query of
// the batch while cache-resident; each query's top Rerank()*k
// approximate candidates are then re-scored exactly against the float32
// arena.
func (x *IndexSQ8) TopKBatch(queries [][]float32, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	n := x.flat.rows()
	if k <= 0 || x.flat.Len() == 0 || len(queries) == 0 {
		return out
	}
	dim := x.flat.dim
	r := k * x.rerank
	if r > n || r < 0 { // r < 0: k*rerank overflowed
		r = n
	}
	b := len(queries)
	qf := make([]float32, b*dim)
	qc := make([]int8, b*dim)
	qscale := make([]float32, b)
	for i, q := range queries {
		row := qf[i*dim : (i+1)*dim]
		copy(row, q)
		embed.Normalize(row)
		qscale[i] = quantizeRow(row, qc[i*dim:(i+1)*dim])
	}
	scoreBack := make([]float32, b*r)
	posBack := make([]int32, b*r)
	heaps := make([]topkHeap, b)
	for i := range heaps {
		heaps[i] = newTopkHeap(scoreBack[i*r:(i+1)*r], posBack[i*r:(i+1)*r], x.flat.ids, r)
	}
	tile := tileRowsFor(dim)
	if tile > n {
		tile = n
	}
	iscores := make([]int32, tile)
	scores := make([]float32, tile)
	for r0 := 0; r0 < n; r0 += tile {
		m := tile
		if r0+m > n {
			m = n - r0
		}
		rows := x.codes[r0*dim : (r0+m)*dim]
		for i := range heaps {
			dotRowsSQ8(rows, qc[i*dim:(i+1)*dim], iscores[:m], dim)
			qs := qscale[i]
			for j := 0; j < m; j++ {
				scores[j] = float32(iscores[j]) * (qs * x.scales[r0+j])
			}
			// Tombstoned rows must not steal re-rank slots: zap them to
			// -Inf so the candidate pool holds live rows only.
			x.flat.zapDead(scores[:m], r0)
			heaps[i].merge(scores[:m], int32(r0))
		}
	}
	for i := range heaps {
		out[i] = x.flat.topKPositions(qf[i*dim:(i+1)*dim], heaps[i].positions(), k)
	}
	return out
}
