package match

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"github.com/tdmatch/tdmatch/internal/mmapfile"
)

// randomIndex builds a flat index over n deterministic pseudo-random
// vectors of the given dimension.
func randomIndex(t testing.TB, n, dim int, seed uint64) *Index {
	t.Helper()
	ids := make([]string, n)
	vecs := make([][]float32, n)
	state := seed
	for i := range ids {
		ids[i] = fmt.Sprintf("d%04d", i)
		v := make([]float32, dim)
		for d := range v {
			state = splitmix(state)
			v[d] = float32(state%2000)/1000 - 1
		}
		vecs[i] = v
	}
	idx, err := NewIndex(ids, vecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// hnswGraphEqual compares two graphs structurally: levels and the
// flattened CSR adjacency.
func hnswGraphEqual(a, b *HNSW) bool {
	ao, aa := a.FlattenLinks()
	bo, ba := b.FlattenLinks()
	return reflect.DeepEqual(a.Levels(), b.Levels()) &&
		reflect.DeepEqual(ao, bo) && reflect.DeepEqual(aa, ba)
}

// TestHNSWDeterministicBuild: two builds over the same rows with the
// same seed must produce identical graphs (the property byte-identical
// snapshots rest on), and a different seed must produce a different
// level assignment.
func TestHNSWDeterministicBuild(t *testing.T) {
	flat := randomIndex(t, 400, 16, 21)
	a := NewHNSW(flat, HNSWOptions{Seed: 5})
	b := NewHNSW(flat, HNSWOptions{Seed: 5})
	if !hnswGraphEqual(a, b) {
		t.Fatal("same-seed builds produced different graphs")
	}
	c := NewHNSW(flat, HNSWOptions{Seed: 6})
	if reflect.DeepEqual(a.Levels(), c.Levels()) {
		t.Fatal("different seeds produced identical level assignments")
	}
}

// TestHNSWSmallCorpusMatchesFlatExactly: when the beam covers every
// live row the batch delegates to the exact scan, so small corpora are
// served bit-identically to flat.
func TestHNSWSmallCorpusMatchesFlatExactly(t *testing.T) {
	flat := randomIndex(t, 50, 16, 3)
	h := NewHNSW(flat, HNSWOptions{Seed: 1}) // default ef=96 >= 50 rows
	for qi := 0; qi < 50; qi += 5 {
		q := flat.row(qi)
		if got, want := h.TopK(q, 10), flat.TopK(q, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: delegated HNSW diverged from flat\nflat: %v\nhnsw: %v", qi, want, got)
		}
	}
}

// collinearIndex builds a flat index over n near-collinear rows: one
// shared pseudo-random direction plus uniform noise of amplitude noise
// per component, the shape catalogue titles with heavy token overlap
// embed to. At noise 0.045 and dim 96 two rows score about 0.998.
func collinearIndex(t testing.TB, n, dim int, noise float32, seed uint64) *Index {
	t.Helper()
	state := seed
	unit := func() float32 {
		state = splitmix(state)
		return float32(state%2000)/1000 - 1
	}
	dir := make([]float32, dim)
	for d := range dir {
		dir[d] = unit()
	}
	ids := make([]string, n)
	vecs := make([][]float32, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%04d", i)
		v := make([]float32, dim)
		for d := range v {
			v[d] = dir[d] + noise*unit()
		}
		vecs[i] = v
	}
	idx, err := NewIndex(ids, vecs, dim)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestHNSWRecall is the ANN recall floor: the graph path (beam narrower
// than the corpus) must hold recall@10 >= 0.95 against the exact scan,
// and every score it reports must equal the exact float32 score (the
// re-rank envelope). It holds on pseudo-random rows and on near-collinear
// ones, and again after Remove of every other row — where the beam,
// widened by the tombstone count, covers the live rows and the query
// delegates to the exact scan.
func TestHNSWRecall(t *testing.T) {
	for _, tc := range []struct {
		name string
		flat *Index
	}{
		{"random", randomIndex(t, 2000, 32, 17)},
		{"near-collinear", collinearIndex(t, 4000, 96, 0.045, 23)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flat := tc.flat
			h := NewHNSW(flat, HNSWOptions{Seed: 4})
			if h.beamWidth(10) >= flat.Len() {
				t.Fatal("beam covers the corpus; test would not exercise graph search")
			}
			// Remove zeroes a row in place, so keep copies of the queries.
			var queries [][]float32
			for qi := 0; qi < flat.rows(); qi += 20 {
				queries = append(queries, append([]float32(nil), flat.row(qi)...))
			}
			checkHNSWRecall(t, h, flat, queries, "built")
			var half []string
			for i := 1; i < flat.rows(); i += 2 {
				half = append(half, flat.IDs()[i])
			}
			if n := h.Remove(half); n != len(half) {
				t.Fatalf("Remove = %d, want %d", n, len(half))
			}
			checkHNSWRecall(t, h, flat, queries, "after Remove of half the rows")
		})
	}
}

// checkHNSWRecall requires recall@10 >= 0.95 of h against the exact
// scan of flat over the queries, with every reported score exact.
func checkHNSWRecall(t *testing.T, h *HNSW, flat *Index, queries [][]float32, when string) {
	t.Helper()
	hits, total := 0, 0
	for qi, q := range queries {
		exact := map[string]float64{}
		for _, s := range flat.TopK(q, 10) {
			exact[s.ID] = s.Score
		}
		for _, s := range h.TopK(q, 10) {
			if want, ok := exact[s.ID]; ok {
				hits++
				if s.Score != want {
					t.Fatalf("%s, query %d: re-ranked score %v != exact %v for %s", when, qi, s.Score, want, s.ID)
				}
			}
		}
		total += len(exact)
	}
	recall := float64(hits) / float64(total)
	t.Logf("%s: recall@10 = %.4f over %d queries", when, recall, len(queries))
	if recall < 0.95 {
		t.Fatalf("%s: recall@10 = %.4f, want >= 0.95", when, recall)
	}
}

// TestHNSWAppendRemove: insert-on-append makes new rows reachable
// through the graph, and removed rows disappear from rankings while
// their nodes keep routing the beam.
func TestHNSWAppendRemove(t *testing.T) {
	flat := randomIndex(t, 500, 16, 9)
	h := NewHNSW(flat, HNSWOptions{M: 8, Ef: 32, EfConstruct: 48, Seed: 2})
	if h.beamWidth(1) >= flat.Len() {
		t.Fatal("beam covers the corpus; test would not exercise graph search")
	}

	// Append: each new row must be its own top-1.
	extra := randomIndex(t, 8, 16, 77)
	ids := make([]string, extra.rows())
	for i := range ids {
		ids[i] = "new-" + extra.IDs()[i]
	}
	if err := h.Append(ids, append([]float32(nil), extra.Arena()...)); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got := h.TopK(extra.row(i), 1)
		if len(got) != 1 || got[0].ID != id {
			t.Fatalf("appended %s not found as its own top-1: %v", id, got)
		}
	}

	// Remove: tombstoned rows never surface, results stay full-length.
	doomed := []string{"d0007", "d0100", ids[3]}
	if n := h.Remove(doomed); n != len(doomed) {
		t.Fatalf("Remove = %d, want %d", n, len(doomed))
	}
	dead := map[string]bool{}
	for _, id := range doomed {
		dead[id] = true
	}
	for qi := 0; qi < 500; qi += 25 {
		for _, s := range h.TopK(flat.row(qi), 10) {
			if dead[s.ID] {
				t.Fatalf("tombstoned %s served for query %d", s.ID, qi)
			}
		}
	}
	if want := 500 + 8 - 3; h.Len() != want {
		t.Fatalf("Len = %d, want %d", h.Len(), want)
	}
}

// TestHNSWFingerprint: the digest must react to every tuning knob and
// to flat mutations underneath.
func TestHNSWFingerprint(t *testing.T) {
	flat := randomIndex(t, 60, 8, 1)
	base := NewHNSW(flat, HNSWOptions{Seed: 1}).Fingerprint()
	if NewHNSW(flat, HNSWOptions{M: 8, Seed: 1}).Fingerprint() == base {
		t.Fatal("M change kept the fingerprint")
	}
	if NewHNSW(flat, HNSWOptions{Ef: 33, Seed: 1}).Fingerprint() == base {
		t.Fatal("ef change kept the fingerprint")
	}
	if NewHNSW(flat, HNSWOptions{EfConstruct: 222, Seed: 1}).Fingerprint() == base {
		t.Fatal("efConstruct change kept the fingerprint")
	}
	if NewHNSW(flat, HNSWOptions{Seed: 2}).Fingerprint() == base {
		t.Fatal("seed change kept the fingerprint")
	}
	h := NewHNSW(flat, HNSWOptions{Seed: 1})
	if h.Remove([]string{flat.IDs()[0]}) != 1 {
		t.Fatal("Remove failed")
	}
	if h.Fingerprint() == base {
		t.Fatal("flat mutation kept the fingerprint")
	}
}

// mapInt32s writes the given int32 slices to one file back to back,
// maps it read-only, and returns the mapped views plus the file path —
// the graph-section analogue of mapNormalizedArena.
func mapInt32s(t *testing.T, parts ...[]int32) ([][]int32, string) {
	t.Helper()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	buf := make([]byte, total*4)
	off := 0
	for _, p := range parts {
		for _, v := range p {
			binary.LittleEndian.PutUint32(buf[off:], uint32(v))
			off += 4
		}
	}
	path := filepath.Join(t.TempDir(), "graph")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := mmapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	data := m.Data()
	all := unsafe.Slice((*int32)(unsafe.Pointer(&data[0])), total)
	out := make([][]int32, len(parts))
	off = 0
	for i, p := range parts {
		out[i] = all[off : off+len(p) : off+len(p)]
		off += len(p)
	}
	return out, path
}

// TestBorrowedHNSWPartsMatchesBuilt: a graph bound from mapped CSR
// sections must serve bit-identically to the built one, stay read-only
// under queries and Remove (the graph is untouched), and promote to
// heap copies on the first graph mutation (Append) without writing
// through to the file.
func TestBorrowedHNSWPartsMatchesBuilt(t *testing.T) {
	flat := randomIndex(t, 300, 16, 31)
	opts := HNSWOptions{M: 8, Ef: 24, EfConstruct: 32, Seed: 6}
	built := NewHNSW(flat, opts)
	offs, adj := built.FlattenLinks()
	mapped, path := mapInt32s(t, built.Levels(), offs, adj)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bound, err := NewHNSWParts(flat.Clone(), mapped[0], mapped[1], mapped[2], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Borrowed() {
		t.Fatal("fresh parts-bound graph reports Borrowed() == false")
	}
	if bound.Fingerprint() != built.Fingerprint() {
		t.Fatal("parts-bound fingerprint diverged from built")
	}
	for qi := 0; qi < 300; qi += 17 {
		q := flat.row(qi)
		if got, want := bound.TopK(q, 10), built.TopK(q, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: parts-bound graph diverged\nbuilt: %v\nbound: %v", qi, want, got)
		}
	}
	if !bound.Borrowed() {
		t.Fatal("read path promoted the graph")
	}

	// Remove tombstones rows in the flat only; the mapped graph stays
	// borrowed and the file untouched.
	if n := bound.Remove([]string{"d0005"}); n != 1 {
		t.Fatalf("Remove = %d, want 1", n)
	}
	if !bound.Borrowed() {
		t.Fatal("Remove promoted the graph (it mutates only the flat)")
	}

	// Append inserts into the graph: must promote, not write through.
	if err := bound.Append([]string{"zz"}, flat.row(0)); err != nil {
		t.Fatal(err)
	}
	if bound.Borrowed() {
		t.Fatal("Append did not promote the borrowed graph")
	}
	if got := bound.TopK(flat.row(0), 2); len(got) < 1 {
		t.Fatalf("appended doc not served: %v", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("mutation wrote through to the mapped graph file")
	}
}

// TestHNSWPartsValidation: corrupt section shapes must be rejected.
func TestHNSWPartsValidation(t *testing.T) {
	flat := randomIndex(t, 40, 8, 2)
	opts := HNSWOptions{M: 4, Seed: 1}
	built := NewHNSW(flat, opts)
	offs, adj := built.FlattenLinks()
	levels := built.Levels()

	if _, err := NewHNSWParts(flat, levels[:len(levels)-1], offs, adj, opts); err == nil {
		t.Fatal("short levels accepted")
	}
	if _, err := NewHNSWParts(flat, levels, offs[:len(offs)-1], adj, opts); err == nil {
		t.Fatal("short offsets accepted")
	}
	if _, err := NewHNSWParts(flat, levels, offs, adj[:len(adj)-1], opts); err == nil {
		t.Fatal("truncated adjacency accepted")
	}
	badLevels := append([]int32(nil), levels...)
	badLevels[0] = -1
	if _, err := NewHNSWParts(flat, badLevels, offs, adj, opts); err == nil {
		t.Fatal("negative level accepted")
	}
	badAdj := append([]int32(nil), adj...)
	badAdj[0] = int32(flat.rows())
	if _, err := NewHNSWParts(flat, levels, offs, badAdj, opts); err == nil {
		t.Fatal("out-of-range neighbor accepted")
	}
	// Row 0 reaches layer 1 and lists row 3 there, which has only layer
	// 0: a search on layer 1 would expand a list row 3 does not have.
	if _, err := NewHNSWParts(randomIndex(t, 4, 8, 3), []int32{1, 0, 0, 0},
		[]int32{0, 3, 4, 6, 8, 10}, []int32{1, 2, 3, 3, 0, 2, 0, 1, 0, 1}, opts); err == nil {
		t.Fatal("neighbor listed above its level accepted")
	}
}

// TestHNSWDegenerate covers empty indexes, k <= 0 and k above the live
// count: the flat index's nil-result conventions must hold.
func TestHNSWDegenerate(t *testing.T) {
	empty, err := NewIndex(nil, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHNSW(empty, HNSWOptions{})
	q := make([]float32, 8)
	q[0] = 1
	if got := h.TopK(q, 3); got != nil {
		t.Errorf("empty-index TopK = %v, want nil", got)
	}
	if err := h.Append([]string{"a", "b"}, []float32{1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := h.TopK(q, 0); got != nil {
		t.Errorf("k=0 TopK = %v, want nil", got)
	}
	if got := h.TopK(q, 10); len(got) != 2 {
		t.Errorf("k>live TopK returned %d results, want 2", len(got))
	}
	if got := h.TopKBatch(nil, 3); len(got) != 0 {
		t.Errorf("empty-batch TopKBatch = %v, want empty", got)
	}
}

// refHNSW is a structural copy of the constructor as it stood before the
// scattered-position kernel and the shared build scratch: one dotOne
// call per scored row, fresh buffers per search, sort.Sort over the
// parallel slices. It is the reference TestHNSWBuildMatchesReference
// holds NewHNSW to, list for list.
type refHNSW struct {
	flat      *Index
	m, efc    int
	levels    []int32
	listStart []int32
	links     [][]int32
	entry     int32
	maxLevel  int32
	visited   hnswScratch
}

func newRefHNSW(flat *Index, o HNSWOptions) *refHNSW {
	o = o.withDefaults()
	n := flat.rows()
	x := &refHNSW{flat: flat, m: o.M, efc: o.EfConstruct, entry: -1,
		levels: make([]int32, n), listStart: make([]int32, n+1),
		visited: hnswScratch{visited: make([]uint32, n)}}
	for i := 0; i < n; i++ {
		x.levels[i] = hnswLevelFor(o.Seed, o.M, i)
		x.listStart[i+1] = x.listStart[i] + x.levels[i] + 1
	}
	x.links = make([][]int32, x.listStart[n])
	for i := 0; i < n; i++ {
		if !flat.isDead(i) {
			x.connect(int32(i))
		}
	}
	return x
}

func (x *refHNSW) connect(i int32) {
	if x.entry < 0 {
		x.entry, x.maxLevel = i, x.levels[i]
		return
	}
	q := x.flat.row(int(i))
	lvl := x.levels[i]
	ep := x.entry
	for l := x.maxLevel; l > lvl; l-- {
		ep = x.greedy(q, ep, l)
	}
	eps := []int32{ep}
	top := lvl
	if top > x.maxLevel {
		top = x.maxLevel
	}
	for l := top; l >= 0; l-- {
		poss, scores := x.searchLayer(q, eps, x.efc, l)
		cap := x.m
		if l == 0 {
			cap = 2 * x.m
		}
		sel := x.selectNeighbors(poss, scores, cap)
		x.links[x.listStart[i]+l] = sel
		for _, nb := range sel {
			x.addLink(nb, l, i, cap)
		}
		eps = poss
	}
	if lvl > x.maxLevel {
		x.entry, x.maxLevel = i, lvl
	}
}

func (x *refHNSW) selectNeighbors(poss []int32, scores []float32, m int) []int32 {
	sel := make([]int32, 0, m)
	var pruned []int32
	for idx, c := range poss {
		if len(sel) == m {
			break
		}
		keep := true
		for _, s := range sel {
			if dotOne(x.flat.row(int(c)), x.flat.row(int(s))) > scores[idx] {
				keep = false
				break
			}
		}
		if keep {
			sel = append(sel, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	for len(sel) < m && len(pruned) > 0 {
		sel = append(sel, pruned[0])
		pruned = pruned[1:]
	}
	return sel
}

func (x *refHNSW) addLink(nb, l, i int32, m int) {
	j := x.listStart[nb] + l
	list := append(x.links[j], i)
	if len(list) > m {
		base := x.flat.row(int(nb))
		scores := make([]float32, len(list))
		for idx, c := range list {
			scores[idx] = dotOne(x.flat.row(int(c)), base)
		}
		sort.Sort(&refPosByScore{list, scores, x.flat.ids})
		list = x.selectNeighbors(list, scores, m)
	}
	x.links[j] = list
}

type refPosByScore struct {
	poss   []int32
	scores []float32
	ids    []string
}

func (p *refPosByScore) Len() int { return len(p.poss) }
func (p *refPosByScore) Less(i, j int) bool {
	if p.scores[i] != p.scores[j] {
		return p.scores[i] > p.scores[j]
	}
	return p.ids[p.poss[i]] < p.ids[p.poss[j]]
}
func (p *refPosByScore) Swap(i, j int) {
	p.poss[i], p.poss[j] = p.poss[j], p.poss[i]
	p.scores[i], p.scores[j] = p.scores[j], p.scores[i]
}

func (x *refHNSW) greedy(q []float32, ep, l int32) int32 {
	cur := ep
	curScore := dotOne(x.flat.row(int(cur)), q)
	for {
		next := cur
		for _, nb := range x.links[x.listStart[cur]+l] {
			if s := dotOne(x.flat.row(int(nb)), q); s > curScore {
				next, curScore = nb, s
			}
		}
		if next == cur {
			return cur
		}
		cur = next
	}
}

func (x *refHNSW) searchLayer(q []float32, eps []int32, w int, l int32) ([]int32, []float32) {
	sc := &x.visited
	sc.reset()
	best := newTopkHeap(make([]float32, w), make([]int32, w), x.flat.ids, w)
	var f hnswFrontier
	for _, ep := range eps {
		if !sc.visit(ep) {
			continue
		}
		s := dotOne(x.flat.row(int(ep)), q)
		best.consider(s, ep)
		f.push(s, ep)
	}
	for len(f.pos) > 0 {
		s, c := f.pop()
		if best.n == best.k && s < best.score[0] {
			break
		}
		for _, nb := range x.links[x.listStart[c]+l] {
			if !sc.visit(nb) {
				continue
			}
			sn := dotOne(x.flat.row(int(nb)), q)
			if best.n < best.k || sn >= best.score[0] {
				f.push(sn, nb)
				best.consider(sn, nb)
			}
		}
	}
	poss := append([]int32(nil), best.pos[:best.n]...)
	scores := append([]float32(nil), best.score[:best.n]...)
	sort.Sort(&refPosByScore{poss, scores, x.flat.ids})
	return poss, scores
}

// TestHNSWBuildMatchesReference: NewHNSW must build, bit for bit, the
// graph the reference constructor builds — over seeded arenas at a dim
// of one kernel step and one of six, with duplicate rows (exact score
// ties, broken by ID), zero rows and tombstoned rows — and inserting the
// tail of an arena by Append must equal building over all of it.
func TestHNSWBuildMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n, dim int
		o      HNSWOptions
	}{
		{600, 8, HNSWOptions{Seed: 3}},
		{600, 8, HNSWOptions{Seed: 3, M: 4, EfConstruct: 12}},
		{500, 96, HNSWOptions{Seed: 11}},
		{500, 96, HNSWOptions{Seed: 12, M: 6, EfConstruct: 40}},
	} {
		flat := kernelTestIndex(t, tc.n, tc.dim, int64(tc.dim))
		var gone []string
		for i := 5; i < tc.n; i += 37 {
			gone = append(gone, flat.ids[i])
		}
		flat.Remove(gone)
		ref := newRefHNSW(flat, tc.o)
		got := NewHNSW(flat, tc.o)
		if !reflect.DeepEqual(got.Levels(), ref.levels) {
			t.Fatalf("n=%d dim=%d %+v: levels differ from the reference", tc.n, tc.dim, tc.o)
		}
		for j := range ref.links {
			if len(got.links[j])+len(ref.links[j]) > 0 && !reflect.DeepEqual(got.links[j], ref.links[j]) {
				t.Fatalf("n=%d dim=%d %+v: list %d = %v, reference %v", tc.n, tc.dim, tc.o, j, got.links[j], ref.links[j])
			}
		}
		if got.entry != ref.entry || got.maxLevel != ref.maxLevel {
			t.Fatalf("n=%d dim=%d: entry %d/%d, reference %d/%d", tc.n, tc.dim, got.entry, got.maxLevel, ref.entry, ref.maxLevel)
		}

		clean := kernelTestIndex(t, tc.n, tc.dim, int64(tc.dim))
		head := tc.n / 2
		grown, err := NewIndexArenaBorrowed(clean.ids[:head], clean.data[:head*tc.dim], tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		appended := NewHNSW(grown, tc.o)
		if err := appended.Append(clean.ids[head:], clean.data[head*tc.dim:]); err != nil {
			t.Fatal(err)
		}
		if !hnswGraphEqual(appended, NewHNSW(clean, tc.o)) {
			t.Fatalf("n=%d dim=%d: build-then-Append differs from one build", tc.n, tc.dim)
		}
	}
}

// TestHNSWBuildAllocations: construction allocates its fixed buffers —
// the level and offset tables, the list table and slab, one scratch —
// and nothing per search or per inserted row.
func TestHNSWBuildAllocations(t *testing.T) {
	small, large := randomIndex(t, 300, 16, 9), randomIndex(t, 1500, 16, 9)
	build := func(flat *Index) float64 {
		return testing.AllocsPerRun(2, func() { NewHNSW(flat, HNSWOptions{Seed: 2}) })
	}
	a, b := build(small), build(large)
	t.Logf("allocs per build: %v at 300 rows, %v at 1500", a, b)
	if b > 64 || b > a+16 {
		t.Fatalf("NewHNSW allocates %v times at 1500 rows (%v at 300): want a constant, not a per-row cost", b, a)
	}
}

// TestDotPosMatchesDotRows pins the scattered-position kernel to the
// tiled one: every listed row scores the same bits through either, on
// every dim shape, and the stop rule returns the first row above it with
// the rows before it scored.
func TestDotPosMatchesDotRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dim := range kernelDims {
		const rows = 23
		arena := make([]float32, rows*dim)
		for i := range arena {
			arena[i] = rng.Float32()*2 - 1
		}
		q := arena[7*dim : 8*dim]
		all := make([]float32, rows)
		dotRows(arena, q, all, dim)
		positions := []int32{22, 0, 7, 7, 13, 1, 21, 4}
		out := make([]float32, len(positions))
		goAll := make([]float32, rows)
		dotRowsGo(arena, q, goAll, dim)
		for _, impl := range []struct {
			name string
			all  []float32
			run  func(out []float32, stop float32) int
		}{
			{"dispatched", all, func(out []float32, stop float32) int { return dotPos(arena, positions, q, out, dim, stop) }},
			{"portable", goAll, func(out []float32, stop float32) int { return dotPosGo(arena, positions, q, out, dim, stop) }},
		} {
			// Stop at each listed row's own score in turn: the kernel must
			// return the first listing that beats it, with everything up to
			// and including that listing scored, and all of them otherwise.
			for _, sp := range append([]int32{-1}, positions...) {
				stop := posInf
				if sp >= 0 {
					stop = impl.all[sp]
				}
				want := len(positions)
				for i, p := range positions {
					if impl.all[p] > stop {
						want = i
						break
					}
				}
				for i := range out {
					out[i] = -9
				}
				if got := impl.run(out, stop); got != want {
					t.Fatalf("dim=%d %s stop=%v: stopped at %d, want %d", dim, impl.name, stop, got, want)
				}
				for i := 0; i < len(positions) && i <= want; i++ {
					if out[i] != impl.all[positions[i]] {
						t.Fatalf("dim=%d %s stop=%v: listing %d scored %v, tiled kernel %v", dim, impl.name, stop, i, out[i], impl.all[positions[i]])
					}
				}
			}
		}
		if n := dotPos(arena, nil, q, nil, dim, 0); n != 0 {
			t.Fatalf("dim=%d: empty list returned %d", dim, n)
		}
	}
}
