// Package graph implements the heterogeneous-corpora graph at the core of
// the paper (§II): an undirected, unweighted graph whose data nodes are
// pre-processed terms and whose metadata nodes represent tuples, table
// attributes, text snippets and taxonomy concepts. It also provides the
// node-merging machinery of §II-C (bucketing, lexicon and embedding-based
// synonym merging) and the shortest-path primitives used by compression.
package graph

import (
	"fmt"
	"sort"
)

// NodeKind distinguishes data nodes from the metadata node flavours.
type NodeKind uint8

const (
	// Data nodes represent terms (1..n-gram of processed tokens).
	Data NodeKind = iota
	// Tuple metadata nodes represent table rows.
	Tuple
	// Attribute metadata nodes represent table columns; they add 2-hop
	// paths across the active domain of an attribute.
	Attribute
	// Snippet metadata nodes represent free-text documents.
	Snippet
	// Concept metadata nodes represent structured-text (taxonomy) nodes.
	Concept
	// External nodes are added by graph expansion from a knowledge base.
	External
)

// String returns a short lower-case name for the kind.
func (k NodeKind) String() string {
	switch k {
	case Data:
		return "data"
	case Tuple:
		return "tuple"
	case Attribute:
		return "attribute"
	case Snippet:
		return "snippet"
	case Concept:
		return "concept"
	case External:
		return "external"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsMetadata reports whether nodes of this kind represent documents to be
// matched (tuples, snippets, concepts). Attribute nodes are structural
// metadata but are never matched, and are not treated as match endpoints.
func (k NodeKind) IsMetadata() bool {
	return k == Tuple || k == Snippet || k == Concept
}

// Side tells which input corpus a metadata node belongs to.
type Side uint8

const (
	// NoSide marks data, attribute and external nodes.
	NoSide Side = iota
	// First marks metadata of the first corpus.
	First
	// Second marks metadata of the second corpus.
	Second
)

// NodeID indexes a node. IDs are dense and stable for the graph's lifetime;
// removed nodes keep their ID but are skipped by all iteration helpers.
type NodeID int32

// Graph is an undirected, unweighted multigraph-free graph.
// The zero value is not usable; call New.
type Graph struct {
	labels  []string
	kinds   []NodeKind
	sides   []Side
	adj     [][]NodeID
	removed []bool

	// csrOff/csrAdj hold the frozen CSR adjacency (see Freeze): node i's
	// neighbors are csrAdj[csrOff[i]:csrOff[i+1]]. While frozen, adj is
	// nil; any mutation thaws back to per-node slices transparently.
	csrOff []int32
	csrAdj []NodeID

	// The frozen CSR is an immutable sealed segment: PatchEdges on a
	// frozen graph never rewrites it. Appended neighbors live in the
	// ovAdj overlay (keyed by node, appended in patch order) and their
	// edge keys in ovEdges, so patching costs O(patch) instead of
	// O(total edges). Nodes added while frozen are not in csrOff at all
	// — their adjacency is overlay-only. mergeOverlay folds everything
	// back into one CSR; thaw folds it into per-node slices.
	ovAdj   map[NodeID][]NodeID
	ovEdges map[uint64]struct{}

	dataIndex map[string]NodeID // canonical term -> data/external node
	metaIndex map[string]NodeID // label -> metadata/attribute node

	// edges holds the sealed edge set; patches on a frozen graph write
	// ovEdges instead.
	edges    map[uint64]struct{}
	nRemoved int
}

// New returns an empty graph with capacity hints.
func New(nodeHint int) *Graph {
	return &Graph{
		labels:    make([]string, 0, nodeHint),
		kinds:     make([]NodeKind, 0, nodeHint),
		sides:     make([]Side, 0, nodeHint),
		adj:       make([][]NodeID, 0, nodeHint),
		removed:   make([]bool, 0, nodeHint),
		dataIndex: make(map[string]NodeID, nodeHint),
		metaIndex: make(map[string]NodeID),
		edges:     make(map[uint64]struct{}, nodeHint*4),
	}
}

// Freeze compacts the per-node adjacency slices into one CSR layout —
// an offsets array plus a single flat neighbor slice — so that walk
// generation and shortest-path scans read sequential memory instead of
// chasing one heap allocation per node. Freezing is idempotent and
// transparent: Neighbors and Degree serve from the CSR, and any later
// mutation (AddEdge, RemoveNode, ...) thaws back to per-node slices
// automatically. The pipeline freezes after compression, right before
// walk generation.
func (g *Graph) Freeze() {
	if g.csrOff != nil {
		// Already frozen: fold any patch overlay so the CSR is current —
		// Freeze's contract is that walks may index the raw arrays.
		g.mergeOverlay()
		return
	}
	total := 0
	off := make([]int32, len(g.adj)+1)
	for i, a := range g.adj {
		off[i] = int32(total)
		total += len(a)
	}
	if int64(total) > int64(1)<<31-1 {
		// CSR offsets are int32; fail loudly instead of silently wrapping
		// (2^31 adjacency entries is ~1 billion edges).
		panic(fmt.Sprintf("graph: %d adjacency entries overflow the CSR int32 offsets", total))
	}
	off[len(g.adj)] = int32(total)
	flat := make([]NodeID, total)
	pos := 0
	for _, a := range g.adj {
		pos += copy(flat[pos:], a)
	}
	g.csrOff, g.csrAdj = off, flat
	g.adj = nil
}

// Frozen reports whether the adjacency currently lives in the compact CSR
// layout built by Freeze.
func (g *Graph) Frozen() bool { return g.csrOff != nil }

// CSR returns the frozen adjacency arrays — node i's neighbors are
// neighbors[offsets[i]:offsets[i+1]] — or (nil, nil) when the graph is
// not frozen or a patch overlay is pending (the raw CSR would then miss
// patched edges; use NeighborParts instead). Hot loops (walk
// generation) index these directly instead of paying the per-step
// Neighbors branch and slice construction. Callers must not mutate the
// returned slices.
func (g *Graph) CSR() (offsets []int32, neighbors []NodeID) {
	if g.hasOverlay() {
		return nil, nil
	}
	return g.csrOff, g.csrAdj
}

// NeighborParts returns id's adjacency as up to two allocation-free
// views: the sealed CSR row and the patch-overlay tail (either may be
// empty). Their concatenation, in that order, is exactly Neighbors(id).
// On a thawed graph the whole list is returned as base. Callers must
// not mutate the returned slices.
func (g *Graph) NeighborParts(id NodeID) (base, overlay []NodeID) {
	if g.csrOff == nil {
		return g.adj[id], nil
	}
	if int(id)+1 < len(g.csrOff) {
		base = g.csrAdj[g.csrOff[id]:g.csrOff[id+1]]
	}
	return base, g.ovAdj[id]
}

// hasOverlay reports whether the frozen CSR is extended by a patch
// overlay (appended neighbors or overlay-only nodes).
func (g *Graph) hasOverlay() bool {
	return len(g.ovAdj) > 0 || (g.csrOff != nil && len(g.labels)+1 > len(g.csrOff))
}

// foldOverlayEdges merges the overlay edge keys into the sealed edge
// map and drops the overlay adjacency.
func (g *Graph) foldOverlayEdges() {
	for k := range g.ovEdges {
		g.edges[k] = struct{}{}
	}
	g.ovAdj, g.ovEdges = nil, nil
}

// mergeOverlay folds the patch overlay into a fresh CSR covering every
// node — the compaction step that re-seals a patched frozen graph. Row
// layout matches what repeated thawed AddEdge calls would produce:
// sealed neighbors first, overlay neighbors appended at the row tail in
// patch order, so walk RNG streams see identical neighbor indexing.
func (g *Graph) mergeOverlay() {
	if g.csrOff == nil || !g.hasOverlay() {
		return
	}
	oldOff, oldAdj := g.csrOff, g.csrAdj
	covered := len(oldOff) - 1
	total := len(oldAdj)
	for _, ov := range g.ovAdj {
		total += len(ov)
	}
	if int64(total) > int64(1)<<31-1 {
		panic(fmt.Sprintf("graph: %d adjacency entries overflow the CSR int32 offsets", total))
	}
	newOff := make([]int32, len(g.labels)+1)
	newAdj := make([]NodeID, total)
	pos := 0
	for i := range g.labels {
		newOff[i] = int32(pos)
		if i < covered {
			pos += copy(newAdj[pos:], oldAdj[oldOff[i]:oldOff[i+1]])
		}
		pos += copy(newAdj[pos:], g.ovAdj[NodeID(i)])
	}
	newOff[len(g.labels)] = int32(pos)
	g.csrOff, g.csrAdj = newOff, newAdj
	g.foldOverlayEdges()
}

// thaw rebuilds the mutable per-node adjacency slices from the CSR
// (folding in any patch overlay) and drops it. Called by every mutating
// method so a frozen graph stays fully functional at the cost of one
// rebuild.
func (g *Graph) thaw() {
	if g.csrOff == nil {
		return
	}
	covered := len(g.csrOff) - 1
	adj := make([][]NodeID, len(g.labels))
	for i := range adj {
		var row []NodeID
		if i < covered {
			row = g.csrAdj[g.csrOff[i]:g.csrOff[i+1]]
		}
		ov := g.ovAdj[NodeID(i)]
		if len(row)+len(ov) > 0 {
			merged := make([]NodeID, 0, len(row)+len(ov))
			adj[i] = append(append(merged, row...), ov...)
		}
	}
	g.adj = adj
	g.csrOff, g.csrAdj = nil, nil
	g.foldOverlayEdges()
}

func (g *Graph) addNode(label string, kind NodeKind, side Side) NodeID {
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, label)
	g.kinds = append(g.kinds, kind)
	g.sides = append(g.sides, side)
	g.removed = append(g.removed, false)
	if g.csrOff != nil {
		// Frozen: the sealed CSR is never appended to — the new node's
		// adjacency lives purely in the patch overlay until the next
		// mergeOverlay/thaw. The delta stages add nodes against the
		// frozen graph and wire their edges with PatchEdges, never paying
		// a thaw.
		return id
	}
	g.adj = append(g.adj, nil)
	return id
}

// EnsureData returns the data node for term, creating it if needed.
func (g *Graph) EnsureData(term string) NodeID {
	if id, ok := g.dataIndex[term]; ok {
		return id
	}
	id := g.addNode(term, Data, NoSide)
	g.dataIndex[term] = id
	return id
}

// EnsureExternal returns the node for an entity added by expansion,
// creating it as an External node if no data node with that label exists.
func (g *Graph) EnsureExternal(label string) NodeID {
	if id, ok := g.dataIndex[label]; ok {
		return id
	}
	id := g.addNode(label, External, NoSide)
	g.dataIndex[label] = id
	return id
}

// AddMeta creates a metadata (or attribute) node with a unique label.
// It returns an error if the label is already taken.
func (g *Graph) AddMeta(label string, kind NodeKind, side Side) (NodeID, error) {
	if kind == Data || kind == External {
		return 0, fmt.Errorf("graph: AddMeta called with kind %v", kind)
	}
	if _, ok := g.metaIndex[label]; ok {
		return 0, fmt.Errorf("graph: duplicate metadata label %q", label)
	}
	id := g.addNode(label, kind, side)
	g.metaIndex[label] = id
	return id, nil
}

// DataNode returns the node for a canonical term.
func (g *Graph) DataNode(term string) (NodeID, bool) {
	id, ok := g.dataIndex[term]
	if ok && g.removed[id] {
		return 0, false
	}
	return id, ok
}

// MetaNode returns the metadata node with the given label.
func (g *Graph) MetaNode(label string) (NodeID, bool) {
	id, ok := g.metaIndex[label]
	if ok && g.removed[id] {
		return 0, false
	}
	return id, ok
}

func edgeKey(a, b NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// hasEdgeKey reports whether the edge key exists in the sealed set or
// the patch overlay.
func (g *Graph) hasEdgeKey(k uint64) bool {
	if _, ok := g.edges[k]; ok {
		return true
	}
	_, ok := g.ovEdges[k]
	return ok
}

// AddEdge inserts the undirected edge {a,b} if not present. Self loops are
// ignored: they add nothing to walks or shortest paths.
func (g *Graph) AddEdge(a, b NodeID) {
	if a == b || g.removed[a] || g.removed[b] {
		return
	}
	k := edgeKey(a, b)
	if g.hasEdgeKey(k) {
		return
	}
	g.thaw()
	g.edges[k] = struct{}{}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// PatchEdges inserts a batch of undirected edges. On a frozen graph the
// new neighbor entries land in the patch overlay — O(patch) work that
// never rewrites the sealed CSR arrays — the "patch" half of the delta
// path's thaw-or-patch contract.
// On a thawed graph it is a plain AddEdge loop. Self loops, edges
// touching removed nodes and duplicates (within the batch or against
// existing edges) are skipped.
func (g *Graph) PatchEdges(pairs [][2]NodeID) {
	if g.csrOff == nil {
		for _, p := range pairs {
			g.AddEdge(p[0], p[1])
		}
		return
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a == b || g.removed[a] || g.removed[b] {
			continue
		}
		k := edgeKey(a, b)
		if g.hasEdgeKey(k) {
			continue
		}
		if g.ovEdges == nil {
			g.ovEdges = make(map[uint64]struct{})
		}
		if g.ovAdj == nil {
			g.ovAdj = make(map[NodeID][]NodeID)
		}
		g.ovEdges[k] = struct{}{}
		g.ovAdj[a] = append(g.ovAdj[a], b)
		g.ovAdj[b] = append(g.ovAdj[b], a)
	}
}

// HasEdge reports whether the undirected edge {a,b} exists.
func (g *Graph) HasEdge(a, b NodeID) bool {
	return g.hasEdgeKey(edgeKey(a, b))
}

// removeEdgeHalf removes b from a's adjacency list.
func (g *Graph) removeEdgeHalf(a, b NodeID) {
	lst := g.adj[a]
	for i, n := range lst {
		if n == b {
			lst[i] = lst[len(lst)-1]
			g.adj[a] = lst[:len(lst)-1]
			return
		}
	}
}

// RemoveNode deletes the node and all incident edges. The NodeID stays
// allocated (iteration helpers skip it). Deleting many nodes at once is
// much cheaper through RemoveNodes, which compacts each surviving
// adjacency list a single time instead of scanning it once per removed
// edge.
func (g *Graph) RemoveNode(id NodeID) {
	if g.removed[id] {
		return
	}
	g.thaw()
	for _, n := range g.adj[id] {
		delete(g.edges, edgeKey(id, n))
		g.removeEdgeHalf(n, id)
	}
	g.adj[id] = nil
	g.removed[id] = true
	g.nRemoved++
	g.dropFromIndex(id)
}

// dropFromIndex removes a deleted node's label from the lookup maps.
func (g *Graph) dropFromIndex(id NodeID) {
	switch g.kinds[id] {
	case Data, External:
		if g.dataIndex[g.labels[id]] == id {
			delete(g.dataIndex, g.labels[id])
		}
	default:
		delete(g.metaIndex, g.labels[id])
	}
}

// RemoveNodes deletes a batch of nodes and their incident edges in one
// mark-and-compact pass: victims are flagged first, then every surviving
// neighbor's adjacency list is rebuilt once. RemoveNode's per-edge
// removeEdgeHalf scan costs O(deg(neighbor)) per incident edge, which
// goes quadratic around hubs during the expansion/compression cleanup
// loops; the batch form is linear in the total degree touched. Duplicate
// and already-removed IDs are ignored. On a frozen graph the CSR arrays
// are compacted directly (the removal half of the delta path's
// thaw-or-patch contract) instead of thawing.
func (g *Graph) RemoveNodes(ids []NodeID) {
	victim := make([]bool, len(g.labels))
	any := false
	for _, id := range ids {
		if !g.removed[id] {
			victim[id] = true
			any = true
		}
	}
	if !any {
		return
	}
	if g.csrOff != nil {
		// Removal rewrites the CSR anyway, so fold any patch overlay in
		// first — the O(total) compaction this path always paid.
		g.mergeOverlay()
		g.removeNodesFrozen(victim)
		return
	}
	dirty := make([]bool, len(g.labels))
	for i, isVictim := range victim {
		if !isVictim {
			continue
		}
		id := NodeID(i)
		for _, n := range g.adj[i] {
			delete(g.edges, edgeKey(id, n))
			if !victim[n] {
				dirty[n] = true
			}
		}
	}
	for i, isDirty := range dirty {
		if !isDirty {
			continue
		}
		src := g.adj[i]
		keep := src[:0]
		for _, n := range src {
			if !victim[n] {
				keep = append(keep, n)
			}
		}
		g.adj[i] = keep
	}
	for i, isVictim := range victim {
		if !isVictim {
			continue
		}
		g.adj[i] = nil
		g.removed[i] = true
		g.nRemoved++
		g.dropFromIndex(NodeID(i))
	}
}

// removeNodesFrozen is RemoveNodes over the frozen CSR: the edge map is
// pruned from the victims' rows, then the offsets and neighbor arrays
// are rebuilt in one pass that drops victim rows and filters victim
// entries out of surviving rows — no thaw, one allocation sweep.
func (g *Graph) removeNodesFrozen(victim []bool) {
	oldOff, oldAdj := g.csrOff, g.csrAdj
	for i, isVictim := range victim {
		if !isVictim {
			continue
		}
		id := NodeID(i)
		for _, n := range oldAdj[oldOff[i]:oldOff[i+1]] {
			delete(g.edges, edgeKey(id, n))
		}
	}
	newOff := make([]int32, len(oldOff))
	newAdj := make([]NodeID, 0, len(oldAdj))
	for i := 0; i < len(oldOff)-1; i++ {
		newOff[i] = int32(len(newAdj))
		if victim[i] {
			continue
		}
		for _, n := range oldAdj[oldOff[i]:oldOff[i+1]] {
			if !victim[n] {
				newAdj = append(newAdj, n)
			}
		}
	}
	newOff[len(newOff)-1] = int32(len(newAdj))
	g.csrOff, g.csrAdj = newOff, newAdj
	for i, isVictim := range victim {
		if !isVictim {
			continue
		}
		g.removed[i] = true
		g.nRemoved++
		g.dropFromIndex(NodeID(i))
	}
}

// MergeData rewires every edge of drop onto keep and removes drop. Future
// lookups of drop's label resolve to keep. Both must be data/external nodes.
func (g *Graph) MergeData(keep, drop NodeID) error {
	if keep == drop {
		return nil
	}
	for _, id := range []NodeID{keep, drop} {
		if k := g.kinds[id]; k != Data && k != External {
			return fmt.Errorf("graph: MergeData on %v node %q", k, g.labels[id])
		}
	}
	neighbors := append([]NodeID(nil), g.Neighbors(drop)...)
	g.RemoveNode(drop)
	for _, n := range neighbors {
		g.AddEdge(keep, n)
	}
	g.dataIndex[g.labels[drop]] = keep
	return nil
}

// Label returns the node label (term text for data nodes, document/column
// ID for metadata).
func (g *Graph) Label(id NodeID) string { return g.labels[id] }

// Kind returns the node kind.
func (g *Graph) Kind(id NodeID) NodeKind { return g.kinds[id] }

// CorpusSide returns which corpus a metadata node belongs to.
func (g *Graph) CorpusSide(id NodeID) Side { return g.sides[id] }

// Removed reports whether the node has been deleted.
func (g *Graph) Removed(id NodeID) bool { return g.removed[id] }

// Neighbors returns the adjacency list of id. The caller must not mutate
// it. On a frozen graph this is a view into the flat CSR neighbor slice;
// when id has patch-overlay neighbors the sealed row and overlay tail
// are merged into a fresh slice (use NeighborParts in hot loops to stay
// allocation-free).
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if g.csrOff != nil {
		base, ov := g.NeighborParts(id)
		if len(ov) == 0 {
			return base
		}
		if len(base) == 0 {
			return ov
		}
		merged := make([]NodeID, 0, len(base)+len(ov))
		return append(append(merged, base...), ov...)
	}
	return g.adj[id]
}

// Degree returns the number of incident edges.
func (g *Graph) Degree(id NodeID) int {
	if g.csrOff != nil {
		d := len(g.ovAdj[id])
		if int(id)+1 < len(g.csrOff) {
			d += int(g.csrOff[id+1] - g.csrOff[id])
		}
		return d
	}
	return len(g.adj[id])
}

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return len(g.labels) - g.nRemoved }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return len(g.edges) + len(g.ovEdges) }

// Cap returns the upper bound of node IDs ever allocated (including removed
// ones); useful to size arrays indexed by NodeID.
func (g *Graph) Cap() int { return len(g.labels) }

// Nodes calls fn for every live node in ID order.
func (g *Graph) Nodes(fn func(NodeID)) {
	for i := range g.labels {
		if !g.removed[i] {
			fn(NodeID(i))
		}
	}
}

// MetadataNodes returns the live matchable metadata nodes of the given
// side, in ID order. Side NoSide returns metadata nodes of both sides.
func (g *Graph) MetadataNodes(side Side) []NodeID {
	var out []NodeID
	g.Nodes(func(id NodeID) {
		if !g.kinds[id].IsMetadata() {
			return
		}
		if side == NoSide || g.sides[id] == side {
			out = append(out, id)
		}
	})
	return out
}

// DataNodes returns the live data and external nodes in ID order.
func (g *Graph) DataNodes() []NodeID {
	var out []NodeID
	g.Nodes(func(id NodeID) {
		if g.kinds[id] == Data || g.kinds[id] == External {
			out = append(out, id)
		}
	})
	return out
}

// Edges calls fn once per live undirected edge with a < b ordering.
func (g *Graph) Edges(fn func(a, b NodeID)) {
	keys := make([]uint64, 0, len(g.edges)+len(g.ovEdges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	for k := range g.ovEdges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fn(NodeID(k>>32), NodeID(uint32(k)))
	}
}
