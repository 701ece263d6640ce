package match

import (
	"fmt"
	"sync"

	"github.com/tdmatch/tdmatch/internal/embed"
)

// HNSW is a hierarchical navigable-small-world graph index, the
// approximate serving kind next to the exact scan: each indexed row is a
// graph node with at most M neighbors per layer (2M on layer 0), upper
// layers form an exponentially sparser hierarchy, and a query descends
// the hierarchy greedily before an ef-bounded best-first beam over
// layer 0 collects the candidate pool. Search cost is O(ef · degree ·
// dim) regardless of corpus size — the sublinear floor the O(rows)
// flat scan cannot reach — and the collected candidates are
// re-ranked exactly against the retained float32 arena with the same
// dot kernel as every other path, so ties keep the strict
// (score desc, ID asc) order.
//
// Construction is deterministic: node levels come from a seeded
// splitmix generator keyed off (seed, row), and insertion order is row
// order, so two builds over the same arena produce identical graphs —
// the property the byte-identical snapshot contract relies on.
// Like the other kinds, an HNSW index is safe for concurrent queries
// once built; Append and Remove are not safe concurrently with queries.
type HNSW struct {
	flat *Index
	m    int // degree cap on layers > 0; layer 0 allows 2m
	ef   int // query beam width
	efc  int // construction beam width
	seed int64

	levels    []int32   // per-row top layer (0-based)
	listStart []int32   // first list index of row i (len rows+1); row i's layer-l list is links[listStart[i]+l]
	links     [][]int32 // per-(row, layer) neighbor lists
	entry     int32     // descent entry point: the highest-level row, -1 while empty
	maxLevel  int32

	// borrowed marks levels and the neighbor lists as read-only views of
	// a mapped snapshot section; the first mutation promotes them to heap
	// copies instead of writing through (same contract as Index.borrowed).
	borrowed bool

	scratchPool sync.Pool
}

var _ VectorIndex = (*HNSW)(nil)

// Default HNSW tuning: M=16 with efConstruct=128 builds a graph whose
// ef=96 beam holds recall@10 >= 0.95 on corpora at the paper's scale
// while scoring a few thousand rows per query instead of all of them.
const (
	DefaultHNSWM           = 16
	DefaultHNSWEf          = 96
	DefaultHNSWEfConstruct = 128

	// hnswMaxLevel bounds the hierarchy depth (level overflow would need
	// ~16^24 rows).
	hnswMaxLevel = 24
)

// HNSWOptions tunes HNSW construction and search. Zero values select
// the defaults above.
type HNSWOptions struct {
	// M caps the neighbor count per node on layers above 0; layer 0
	// allows 2M. Larger M raises recall and memory per node.
	M int
	// Ef is the query-time beam width: the layer-0 search keeps the best
	// Ef candidates seen, all of which feed the exact re-rank. Raised to
	// k when k exceeds it.
	Ef int
	// EfConstruct is the construction-time beam width: wider beams find
	// better neighbors and build better graphs, at build-time cost.
	EfConstruct int
	// Seed drives the level generator; equal seeds give equal graphs.
	Seed int64
}

// withDefaults resolves zero options to the package defaults.
func (o HNSWOptions) withDefaults() HNSWOptions {
	if o.M <= 0 {
		o.M = DefaultHNSWM
	}
	if o.Ef <= 0 {
		o.Ef = DefaultHNSWEf
	}
	if o.EfConstruct <= 0 {
		o.EfConstruct = DefaultHNSWEfConstruct
	}
	if o.EfConstruct < o.M {
		o.EfConstruct = o.M
	}
	return o
}

// hnswLevelFor draws row i's top layer from the seeded geometric level
// distribution with p = 1/m — the deterministic stand-in for the
// paper's floor(-ln(U)·mL) draw (identical distribution, integer-only
// arithmetic, reproducible across platforms).
func hnswLevelFor(seed int64, m, i int) int32 {
	state := splitmix(uint64(seed) ^ splitmix(uint64(i)+0x686e7377)) // "hnsw"
	var lvl int32
	for lvl < hnswMaxLevel && state%uint64(m) == 0 {
		lvl++
		state = splitmix(state)
	}
	return lvl
}

// NewHNSW builds the graph over the flat index's rows, inserting them
// in row order with seeded levels. The flat index is retained (not
// copied): beam candidates and the exact re-rank score straight out of
// its arena, and Flat exposes it for exact paths. Tombstoned rows are
// not inserted. Every neighbor list is cut from one slab at its degree
// cap and the whole build shares one scratch, so construction allocates
// a fixed handful of buffers however many rows it inserts.
func NewHNSW(flat *Index, o HNSWOptions) *HNSW {
	o = o.withDefaults()
	x := &HNSW{
		flat:  flat,
		m:     o.M,
		ef:    o.Ef,
		efc:   o.EfConstruct,
		seed:  o.Seed,
		entry: -1,
	}
	n := flat.rows()
	x.levels = make([]int32, n)
	x.listStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		lvl := hnswLevelFor(o.Seed, o.M, i)
		x.levels[i] = lvl
		x.listStart[i+1] = x.listStart[i] + lvl + 1
	}
	lists := int(x.listStart[n])
	x.links = make([][]int32, lists)
	slab := make([]int32, n*x.m0()+(lists-n)*x.m)
	for i, j := 0, 0; i < n; i++ {
		for l := int32(0); l <= x.levels[i]; l, j = l+1, j+1 {
			c := x.degreeCap(l)
			x.links[j], slab = slab[:0:c], slab[c:]
		}
	}
	sc := x.scratch()
	for i := 0; i < n; i++ {
		if flat.isDead(i) {
			continue
		}
		x.connect(int32(i), sc)
	}
	x.putScratch(sc)
	return x
}

// NewHNSWParts builds an HNSW index that adopts a prebuilt graph —
// per-row levels plus the flattened CSR adjacency (offs, adj) produced
// by Levels/FlattenLinks at save time — instead of re-inserting every
// row: the zero-copy binding path for snapshot sections. levels, offs
// and adj may be read-only borrowed backing (e.g. a PROT_READ mmap):
// mutations promote them to heap copies first.
func NewHNSWParts(flat *Index, levels, offs, adj []int32, o HNSWOptions) (*HNSW, error) {
	o = o.withDefaults()
	n := flat.rows()
	if len(levels) != n {
		return nil, fmt.Errorf("match: hnsw levels hold %d entries for %d rows", len(levels), n)
	}
	x := &HNSW{
		flat:     flat,
		m:        o.M,
		ef:       o.Ef,
		efc:      o.EfConstruct,
		seed:     o.Seed,
		entry:    -1,
		levels:   levels,
		borrowed: true,
	}
	x.listStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		lvl := levels[i]
		if lvl < 0 || lvl > hnswMaxLevel {
			return nil, fmt.Errorf("match: hnsw level %d of row %d out of range", lvl, i)
		}
		x.listStart[i+1] = x.listStart[i] + lvl + 1
		if lvl > x.maxLevel || (lvl == x.maxLevel && x.entry < 0) {
			x.maxLevel = lvl
			x.entry = int32(i)
		}
	}
	lists := int(x.listStart[n])
	if len(offs) != lists+1 {
		return nil, fmt.Errorf("match: hnsw offsets hold %d entries for %d lists", len(offs), lists)
	}
	if lists > 0 && offs[0] != 0 {
		return nil, fmt.Errorf("match: hnsw offsets start at %d", offs[0])
	}
	x.links = make([][]int32, lists)
	for j := 0; j < lists; j++ {
		lo, hi := offs[j], offs[j+1]
		if lo > hi || int(hi) > len(adj) {
			return nil, fmt.Errorf("match: hnsw offsets corrupt at list %d (%d..%d of %d)", j, lo, hi, len(adj))
		}
		// Three-index subslices: cap == len, so a post-promotion append can
		// never grow into the mapped arena.
		x.links[j] = adj[lo:hi:hi]
	}
	if lists > 0 && int(offs[lists]) != len(adj) {
		return nil, fmt.Errorf("match: hnsw adjacency holds %d entries, offsets end at %d", len(adj), offs[lists])
	}
	// A search on layer l expands a neighbor's own layer-l list, so every
	// neighbor must be a row that reaches the layer it is listed on.
	for i := 0; i < n; i++ {
		for l := int32(0); l <= levels[i]; l++ {
			for _, nb := range x.links[x.listStart[i]+l] {
				if nb < 0 || int(nb) >= n {
					return nil, fmt.Errorf("match: hnsw neighbor %d out of range for %d rows", nb, n)
				}
				if levels[nb] < l {
					return nil, fmt.Errorf("match: hnsw row %d lists row %d on layer %d, above its level %d", i, nb, l, levels[nb])
				}
			}
		}
	}
	return x, nil
}

// promote copies borrowed graph storage (levels and every neighbor
// list) to private heap slices before the first mutation, so a mapped
// snapshot section is never written through.
func (x *HNSW) promote() {
	if !x.borrowed {
		return
	}
	x.levels = append([]int32(nil), x.levels...)
	links := make([][]int32, len(x.links))
	for j, l := range x.links {
		links[j] = append([]int32(nil), l...)
	}
	x.links = links
	x.borrowed = false
}

// Borrowed reports whether the graph storage is still read-only
// borrowed backing (no mutation has promoted it yet).
func (x *HNSW) Borrowed() bool { return x.borrowed }

// Ef returns the query-time beam width.
func (x *HNSW) Ef() int { return x.ef }

// BuiltWith reports whether NewHNSW(x.flat, o) would draw this graph's
// skeleton: o resolves to the M, EfConstruct and Seed the graph records,
// and every row's level is the one that seed draws. The levels are
// checked, not trusted: a graph adopted by NewHNSWParts records the
// options it was bound with, which need not be the ones it was built
// with. Ef is a query-time knob and does not take part.
func (x *HNSW) BuiltWith(o HNSWOptions) bool {
	o = o.withDefaults()
	if x.m != o.M || x.efc != o.EfConstruct || x.seed != o.Seed {
		return false
	}
	for i, lvl := range x.levels {
		if lvl != hnswLevelFor(o.Seed, o.M, i) {
			return false
		}
	}
	return true
}

// MaxLevel returns the top layer of the hierarchy (0 for a flat graph).
func (x *HNSW) MaxLevel() int { return int(x.maxLevel) }

// AvgDegree returns the mean layer-0 neighbor count per row — the
// stats surface of graph density.
func (x *HNSW) AvgDegree() float64 {
	n := x.flat.rows()
	if n == 0 {
		return 0
	}
	edges := 0
	for i := 0; i < n; i++ {
		edges += len(x.links[x.listStart[i]])
	}
	return float64(edges) / float64(n)
}

// Levels returns the per-row level assignments. Callers must not
// mutate them; the snapshot writer serializes them directly.
func (x *HNSW) Levels() []int32 { return x.levels }

// FlattenLinks returns the adjacency in CSR form — cumulative offsets
// (one per (row, layer) list, in row-major layer order, plus a final
// total) and the concatenated neighbor arena — the shape the snapshot
// writer serializes and NewHNSWParts adopts.
func (x *HNSW) FlattenLinks() (offs, adj []int32) {
	offs = make([]int32, len(x.links)+1)
	total := 0
	for j, l := range x.links {
		total += len(l)
		offs[j+1] = int32(total)
	}
	adj = make([]int32, 0, total)
	for _, l := range x.links {
		adj = append(adj, l...)
	}
	return offs, adj
}

// m0 returns the layer-0 degree cap.
func (x *HNSW) m0() int { return 2 * x.m }

// degreeCap returns the neighbor-count cap of layer l.
func (x *HNSW) degreeCap(l int32) int {
	if l == 0 {
		return x.m0()
	}
	return x.m
}

// neighborList returns row i's layer-l neighbor list.
func (x *HNSW) neighborList(i, l int32) []int32 {
	return x.links[x.listStart[i]+l]
}

// connect inserts row i (whose level is already assigned) into the
// graph: greedy descent to the row's level, then per-layer beam search,
// heuristic neighbor selection and bidirectional linking with degree-cap
// pruning.
func (x *HNSW) connect(i int32, sc *hnswScratch) {
	if x.entry < 0 {
		x.entry = i
		x.maxLevel = x.levels[i]
		return
	}
	q := x.flat.row(int(i))
	lvl := x.levels[i]
	ep := x.entry
	for l := x.maxLevel; l > lvl; l-- {
		ep = x.greedy(q, ep, l, sc)
	}
	eps := []int32{ep}
	top := lvl
	if top > x.maxLevel {
		top = x.maxLevel
	}
	for l := top; l >= 0; l-- {
		poss, scores := x.searchLayer(q, eps, x.efc, l, sc)
		cap := x.degreeCap(l)
		j := x.listStart[i] + l
		x.links[j] = append(x.links[j][:0], x.selectNeighbors(poss, scores, cap, sc)...)
		for _, nb := range x.links[j] {
			x.addLink(nb, l, i, cap, sc)
		}
		eps = poss
	}
	if lvl > x.maxLevel {
		x.entry = i
		x.maxLevel = lvl
	}
}

// selectNeighbors applies the diversity heuristic to a best-first
// candidate list: a candidate is kept only when it is closer to the
// base row than to every already-kept neighbor, so the selected set
// spreads over distinct directions instead of clustering; remaining
// slots are refilled from the pruned candidates in rank order. One
// kernel call scores a candidate against the kept set and stops at the
// first kept neighbor that prunes it. The selection aliases the
// scratch: callers copy it into the list it is for.
func (x *HNSW) selectNeighbors(poss []int32, scores []float32, m int, sc *hnswScratch) []int32 {
	sel, pruned := sc.sel[:0], sc.pruned[:0]
	for idx, c := range poss {
		if len(sel) == m {
			break
		}
		sc.dots = grow(sc.dots, len(sel))
		if x.flat.dotPositions(sel, x.flat.row(int(c)), sc.dots, scores[idx]) == len(sel) {
			sel = append(sel, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	if fill := m - len(sel); fill > 0 {
		if fill > len(pruned) {
			fill = len(pruned)
		}
		sel = append(sel, pruned[:fill]...)
	}
	sc.sel, sc.pruned = sel, pruned
	return sel
}

// addLink adds i to nb's layer-l neighbor list, re-running the
// selection heuristic over the list plus i — ranked against nb's row in
// one kernel call — when the list is already at its degree cap. The
// re-selected list is written back over the old one in place.
func (x *HNSW) addLink(nb, l, i int32, m int, sc *hnswScratch) {
	j := x.listStart[nb] + l
	list := x.links[j]
	if len(list) < m {
		x.links[j] = append(list, i)
		return
	}
	sc.cand = append(append(sc.cand[:0], list...), i)
	sc.candScore = grow(sc.candScore, len(sc.cand))
	x.flat.dotPositions(sc.cand, x.flat.row(int(nb)), sc.candScore, posInf)
	sortByScore(sc.cand, sc.candScore, x.flat.ids)
	x.links[j] = append(list[:0], x.selectNeighbors(sc.cand, sc.candScore, m, sc)...)
}

// sortByScore orders parallel (position, score) slices best-first:
// score descending, ties by ascending ID — the same strict total order
// every selection path uses. An insertion sort: its input is a neighbor
// list in selection order plus one row, a few dozen entries in two
// nearly sorted runs.
func sortByScore(poss []int32, scores []float32, ids []string) {
	for i := 1; i < len(poss); i++ {
		p, s := poss[i], scores[i]
		j := i
		for ; j > 0 && (scores[j-1] < s || (scores[j-1] == s && ids[poss[j-1]] > ids[p])); j-- {
			poss[j], scores[j] = poss[j-1], scores[j-1]
		}
		poss[j], scores[j] = p, s
	}
}

// greedy walks layer l from ep to the locally best row: repeatedly move
// to the neighbor scoring strictly higher than the current row (ties
// never move, so the walk is cycle-free and deterministic).
func (x *HNSW) greedy(q []float32, ep, l int32, sc *hnswScratch) int32 {
	cur := ep
	curScore := dotOne(x.flat.row(int(cur)), q)
	for {
		next := cur
		nbs := x.neighborList(cur, l)
		sc.dots = grow(sc.dots, len(nbs))
		x.flat.dotPositions(nbs, q, sc.dots, posInf)
		for j, nb := range nbs {
			if s := sc.dots[j]; s > curScore {
				next, curScore = nb, s
			}
		}
		if next == cur {
			return cur
		}
		cur = next
	}
}

// searchLayer runs the ef-bounded best-first beam over layer l from the
// given entry points: a max-ordered frontier expands the best
// unexplored candidate while it can still improve the current best-w
// set, every visited row is scored once with the shared dot kernel —
// the unvisited neighbors of an expanded row in one scattered-position
// call — and the surviving w candidates return best-first (score desc,
// ID asc). Tombstoned rows are traversed — their edges keep the graph
// connected — but the callers' exact re-rank excludes them from
// rankings. The result aliases the scratch until its next search; eps
// may be the previous result, it is consumed before anything is
// overwritten.
func (x *HNSW) searchLayer(q []float32, eps []int32, w int, l int32, sc *hnswScratch) ([]int32, []float32) {
	sc.reset()
	batch, dots := x.scoreUnvisited(q, eps, sc)
	sc.heapScore, sc.heapPos = grow(sc.heapScore, w), grow(sc.heapPos, w)
	best := newTopkHeap(sc.heapScore, sc.heapPos, x.flat.ids, w)
	f := &sc.front
	f.score, f.pos = f.score[:0], f.pos[:0]
	for j, ep := range batch {
		best.consider(dots[j], ep)
		f.push(dots[j], ep)
	}
	for len(f.pos) > 0 {
		s, c := f.pop()
		if best.n == best.k && s < best.score[0] {
			break
		}
		batch, dots = x.scoreUnvisited(q, x.neighborList(c, l), sc)
		for j, nb := range batch {
			if sn := dots[j]; best.n < best.k || sn >= best.score[0] {
				f.push(sn, nb)
				best.consider(sn, nb)
			}
		}
	}
	return best.sortBestFirst()
}

// scoreUnvisited marks the not yet visited rows of list visited and
// scores them against q in one kernel call; the returned positions and
// scores alias the scratch until the next call.
func (x *HNSW) scoreUnvisited(q []float32, list []int32, sc *hnswScratch) ([]int32, []float32) {
	batch := sc.batch[:0]
	for _, p := range list {
		if sc.visit(p) {
			batch = append(batch, p)
		}
	}
	sc.batch = batch
	sc.dots = grow(sc.dots, len(batch))
	x.flat.dotPositions(batch, q, sc.dots, posInf)
	return batch, sc.dots
}

// hnswFrontier is the expansion frontier of one beam search: a binary
// max-heap over (score, position) with higher scores first and ties by
// lower position, so expansion order is deterministic.
type hnswFrontier struct {
	score []float32
	pos   []int32
}

func (f *hnswFrontier) better(i, j int) bool {
	if f.score[i] != f.score[j] {
		return f.score[i] > f.score[j]
	}
	return f.pos[i] < f.pos[j]
}

func (f *hnswFrontier) push(s float32, p int32) {
	f.score = append(f.score, s)
	f.pos = append(f.pos, p)
	i := len(f.pos) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.better(i, parent) {
			break
		}
		f.swap(i, parent)
		i = parent
	}
}

func (f *hnswFrontier) pop() (float32, int32) {
	s, p := f.score[0], f.pos[0]
	n := len(f.pos) - 1
	f.score[0], f.pos[0] = f.score[n], f.pos[n]
	f.score, f.pos = f.score[:n], f.pos[:n]
	i := 0
	for {
		bestI := i
		if l := 2*i + 1; l < n && f.better(l, bestI) {
			bestI = l
		}
		if r := 2*i + 2; r < n && f.better(r, bestI) {
			bestI = r
		}
		if bestI == i {
			return s, p
		}
		f.swap(i, bestI)
		i = bestI
	}
}

func (f *hnswFrontier) swap(i, j int) {
	f.score[i], f.score[j] = f.score[j], f.score[i]
	f.pos[i], f.pos[j] = f.pos[j], f.pos[i]
}

// hnswScratch is the reusable state of graph searches: the visited set
// — a stamp array instead of a bitmap, so it resets in O(1) between
// searches — and every buffer a search or an insertion fills, so that a
// pooled scratch (one for a whole build) makes them allocation-free.
type hnswScratch struct {
	stamp   uint32
	visited []uint32

	// One beam search: the best-w heap's backing, the expansion
	// frontier, and the unvisited-neighbor batch with its scores.
	heapScore []float32
	heapPos   []int32
	front     hnswFrontier
	batch     []int32
	dots      []float32

	// One insertion: the overflowing list plus the new row with their
	// scores against the list's base row, and the selection heuristic's
	// kept and pruned sets.
	cand      []int32
	candScore []float32
	sel       []int32
	pruned    []int32
}

// grow returns b resized to n entries, reallocating (to at least twice
// the old capacity, so a buffer that creeps up settles after a few
// calls) only when its capacity is short; the contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

// visit marks row p visited, reporting true the first time.
func (s *hnswScratch) visit(p int32) bool {
	if s.visited[p] == s.stamp {
		return false
	}
	s.visited[p] = s.stamp
	return true
}

// reset starts a fresh visited generation in O(1), clearing the array
// only on the (2^32nd) stamp wrap where stale stamps could alias.
func (s *hnswScratch) reset() {
	s.stamp++
	if s.stamp == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.stamp = 1
	}
}

// scratch leases a search scratch whose visited set covers the current
// row count.
func (x *HNSW) scratch() *hnswScratch {
	n := x.flat.rows()
	sc, _ := x.scratchPool.Get().(*hnswScratch)
	if sc == nil {
		sc = &hnswScratch{}
	}
	if len(sc.visited) < n {
		sc.visited, sc.stamp = make([]uint32, n), 0
	}
	return sc
}

func (x *HNSW) putScratch(sc *hnswScratch) { x.scratchPool.Put(sc) }

// Len returns the number of live indexed documents.
func (x *HNSW) Len() int { return x.flat.Len() }

// IDs returns the indexed document IDs in index order.
func (x *HNSW) IDs() []string { return x.flat.IDs() }

// Dim returns the vector dimensionality.
func (x *HNSW) Dim() int { return x.flat.Dim() }

// fingerprintHNSW is the kind tag keeping HNSW digests disjoint from
// flat and segmented ones.
const fingerprintHNSW uint64 = 0x6e57

// Fingerprint returns the serving-configuration digest of the graph
// index: the underlying flat fingerprint mixed with the HNSW kind tag
// and every tuning knob, so re-tuning M/ef — or re-seeding the level
// generator — invalidates fingerprint-keyed result caches.
func (x *HNSW) Fingerprint() uint64 {
	return mixFingerprint(fingerprintHNSW, x.flat.Fingerprint(),
		uint64(x.m), uint64(x.ef), uint64(x.efc), uint64(x.seed))
}

// Append adds documents to the underlying flat index and inserts each
// new row into the graph at its seeded level — insert-on-append, no
// rebuild: existing neighbor lists change only where the degree-cap
// pruning touches them.
func (x *HNSW) Append(ids []string, arena []float32) error {
	base := x.flat.rows()
	if err := x.flat.Append(ids, arena); err != nil {
		return err
	}
	x.promote()
	sc := x.scratch()
	for i := range ids {
		p := base + i
		lvl := hnswLevelFor(x.seed, x.m, p)
		x.levels = append(x.levels, lvl)
		x.listStart = append(x.listStart, x.listStart[p]+lvl+1)
		x.links = append(x.links, make([][]int32, lvl+1)...)
		x.connect(int32(p), sc)
	}
	x.putScratch(sc)
	return nil
}

// Remove tombstones the documents in the underlying flat index. Their
// graph nodes stay — edges through them keep the beam connected — but
// their zeroed rows score 0 in the beam and the exact re-rank excludes
// them, so they never surface in rankings; the query beam widens by the
// tombstone count to compensate for the dead rows it may collect.
func (x *HNSW) Remove(ids []string) int { return x.flat.Remove(ids) }

// beamWidth returns the layer-0 beam width for one query: ef raised to
// k, widened by the tombstone count so dead rows collected by the beam
// cannot starve the live candidate pool.
func (x *HNSW) beamWidth(k int) int {
	w := x.ef
	if w < k {
		w = k
	}
	return w + x.flat.nDead
}

// TopK returns the k targets most similar to query, best first with ID
// tie-breaking: greedy hierarchy descent, an ef-bounded beam over
// layer 0, then an exact float32 re-rank of the beam through the same
// kernel as the flat scan.
func (x *HNSW) TopK(query []float32, k int) []Scored {
	return x.TopKBatch(oneQuery(query), k)[0]
}

// TopKBatch answers one TopK per query, position-aligned with queries
// and identical to calling TopK per query. Beams are query-specific, so
// the batch is served query by query; when the beam would cover every
// live row anyway the whole batch delegates to the flat index's blocked
// kernel, which is exact (the small-corpus regime where graph search
// cannot win).
func (x *HNSW) TopKBatch(queries [][]float32, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	if k <= 0 || x.flat.Len() == 0 || len(queries) == 0 {
		return out
	}
	if x.entry < 0 || x.beamWidth(k) >= x.flat.Len() {
		return x.flat.TopKBatch(queries, k)
	}
	dim := x.flat.dim
	qn := make([]float32, dim)
	sc := x.scratch()
	defer x.putScratch(sc)
	for qi, q := range queries {
		copy(qn, q)
		embed.Normalize(qn)
		ep := x.entry
		for l := x.maxLevel; l > 0; l-- {
			ep = x.greedy(qn, ep, l, sc)
		}
		// The layer-0 beam is the exact re-rank pool; its positions live
		// in the scratch, which the next query overwrites.
		beam, _ := x.searchLayer(qn, []int32{ep}, x.beamWidth(k), 0, sc)
		out[qi] = x.flat.topKPositions(qn, beam, k)
	}
	return out
}

// topkHeap is the beam's best-w set: a fixed-capacity min-heap over
// (score, arena position) with the worst resident at the root. "Worse"
// means lower score, or equal score and lexicographically greater ID —
// the tie rule of every ranking path. The exact scans select with the
// sorted run (topkRun) instead, which rejects most rows with one
// compare; the beam keeps a heap because most of its candidates are
// accepted, and at w = ef = 96 a run's O(w) shift per insertion loses
// to the heap's O(log w) sift (BenchmarkTopKHNSW, measured both ways).
type topkHeap struct {
	score []float32 // backing of capacity k; score[i] pairs with pos[i]
	pos   []int32
	ids   []string // full index ID table, for tie comparison by position
	k     int
	n     int
}

// newTopkHeap returns a heap selecting the best k of the index's rows.
func newTopkHeap(score []float32, pos []int32, ids []string, k int) topkHeap {
	return topkHeap{score: score, pos: pos, ids: ids, k: k}
}

// worse reports whether candidate (s, p) ranks below resident i.
func (h *topkHeap) worse(s float32, p int32, i int) bool {
	if s != h.score[i] {
		return s < h.score[i]
	}
	return h.ids[p] > h.ids[h.pos[i]]
}

// consider offers one candidate to the heap.
func (h *topkHeap) consider(s float32, p int32) {
	if h.n < h.k {
		h.score[h.n], h.pos[h.n] = s, p
		h.siftUp(h.n)
		h.n++
		return
	}
	// Full: replace the root only when the candidate beats it (higher
	// score, or equal score and smaller ID).
	if s < h.score[0] {
		return
	}
	if s == h.score[0] && h.ids[p] >= h.ids[h.pos[0]] {
		return
	}
	h.score[0], h.pos[0] = s, p
	h.siftDown(0)
}

// siftUp restores the heap property after placing a new entry at i.
func (h *topkHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(h.score[i], h.pos[i], parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (h *topkHeap) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < h.n && h.worse(h.score[l], h.pos[l], worst) {
			worst = l
		}
		if r := 2*i + 2; r < h.n && h.worse(h.score[r], h.pos[r], worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.swap(i, worst)
		i = worst
	}
}

func (h *topkHeap) swap(i, j int) {
	h.score[i], h.score[j] = h.score[j], h.score[i]
	h.pos[i], h.pos[j] = h.pos[j], h.pos[i]
}

// sortBestFirst reorders the residents in place best-first (score
// descending, ties by ascending ID) and returns them. The worst
// resident sits at the root, so moving it behind a shrinking heap — a
// heapsort — leaves exactly that order, with no buffer beside the
// heap's own backing. The heap property is gone afterwards.
func (h *topkHeap) sortBestFirst() ([]int32, []float32) {
	n := h.n
	for h.n > 1 {
		h.n--
		h.swap(0, h.n)
		h.siftDown(0)
	}
	h.n = n
	return h.pos[:n], h.score[:n]
}
