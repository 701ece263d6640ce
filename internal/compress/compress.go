// Package compress implements the graph compression of the paper's §III-B:
// the MSP (Metadata Shortest Path) algorithm (Algorithm 3), which samples
// cross-corpus metadata-node pairs and keeps only the nodes and edges on
// their shortest paths, plus an SSuM-style summarizer (node grouping +
// edge sparsification) as the literature baseline of Table VIII.
package compress

import (
	"math/rand"

	"github.com/tdmatch/tdmatch/internal/graph"
)

// subgraphBuilder copies nodes from a source graph into a fresh graph,
// preserving labels, kinds and corpus sides.
type subgraphBuilder struct {
	src *graph.Graph
	dst *graph.Graph
	ids map[graph.NodeID]graph.NodeID
}

func newSubgraphBuilder(src *graph.Graph) *subgraphBuilder {
	return &subgraphBuilder{
		src: src,
		dst: graph.New(src.NumNodes() / 2),
		ids: make(map[graph.NodeID]graph.NodeID, src.NumNodes()/2),
	}
}

func (b *subgraphBuilder) node(old graph.NodeID) graph.NodeID {
	if id, ok := b.ids[old]; ok {
		return id
	}
	var id graph.NodeID
	switch k := b.src.Kind(old); k {
	case graph.Data:
		id = b.dst.EnsureData(b.src.Label(old))
	case graph.External:
		id = b.dst.EnsureExternal(b.src.Label(old))
	default:
		var err error
		id, err = b.dst.AddMeta(b.src.Label(old), k, b.src.CorpusSide(old))
		if err != nil {
			// Label collisions cannot happen: ids map is authoritative and
			// source labels are unique. Resolve defensively anyway.
			if existing, ok := b.dst.MetaNode(b.src.Label(old)); ok {
				id = existing
			}
		}
	}
	b.ids[old] = id
	return id
}

func (b *subgraphBuilder) addPath(path []graph.NodeID) {
	for i, n := range path {
		id := b.node(n)
		if i > 0 {
			b.dst.AddEdge(b.ids[path[i-1]], id)
		}
	}
}

// Options configures MSP.
type Options struct {
	// Ratio is β in Algorithm 3: iterations = Ratio * |V(G)|.
	Ratio float64
	// Seed drives pair sampling; fixed seeds give reproducible output.
	Seed int64
	// MaxPathsPerPair caps the all-shortest-paths enumeration (default 8).
	MaxPathsPerPair int
}

func (o Options) maxPaths() int {
	if o.MaxPathsPerPair <= 0 {
		return 8
	}
	return o.MaxPathsPerPair
}

// MSP runs Algorithm 3: it samples β·|V| cross-corpus metadata pairs, adds
// all their shortest paths to the output, and finally guarantees that every
// metadata node appears connected through at least one shortest path.
func MSP(g *graph.Graph, opts Options) *graph.Graph {
	rng := rand.New(rand.NewSource(opts.Seed))
	first := g.MetadataNodes(graph.First)
	second := g.MetadataNodes(graph.Second)
	b := newSubgraphBuilder(g)
	if len(first) == 0 || len(second) == 0 {
		// Degenerate: nothing to pair; keep metadata nodes only.
		for _, id := range append(append([]graph.NodeID{}, first...), second...) {
			b.node(id)
		}
		return b.dst
	}
	iters := int(opts.Ratio * float64(g.NumNodes()))
	for i := 0; i < iters; i++ {
		f := first[rng.Intn(len(first))]
		s := second[rng.Intn(len(second))]
		for _, p := range g.AllShortestPaths(f, s, opts.maxPaths()) {
			b.addPath(p)
		}
	}
	ensureConnected(g, b, first, second, rng, opts.maxPaths())
	return b.dst
}

// ensureConnected adds one shortest path for every metadata node that is
// still missing or isolated in the compressed graph.
func ensureConnected(g *graph.Graph, b *subgraphBuilder, first, second []graph.NodeID, rng *rand.Rand, maxPaths int) {
	connect := func(nodes, partners []graph.NodeID) {
		for _, id := range nodes {
			if did, ok := b.ids[id]; ok && b.dst.Degree(did) > 0 {
				continue
			}
			// Try a few random partners before a full scan.
			var path []graph.NodeID
			for try := 0; try < 4 && path == nil; try++ {
				p := partners[rng.Intn(len(partners))]
				path = g.ShortestPath(id, p)
			}
			if path == nil {
				for _, p := range partners {
					if path = g.ShortestPath(id, p); path != nil {
						break
					}
				}
			}
			if path != nil {
				b.addPath(path)
			} else {
				b.node(id) // disconnected in the source graph too
			}
		}
	}
	connect(first, second)
	connect(second, first)
}

// SSuM is a summarization-style baseline in the spirit of SSumM (Lee et
// al., KDD 2020): it keeps all metadata nodes, samples a fraction of data
// nodes weighted by degree, and then sparsifies edges uniformly until the
// target ratio is met. It is corpus-agnostic, which is exactly why it
// underperforms MSP on the matching task (Table VIII).
func SSuM(g *graph.Graph, targetNodeRatio float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := newSubgraphBuilder(g)
	var meta, data []graph.NodeID
	g.Nodes(func(id graph.NodeID) {
		if g.Kind(id).IsMetadata() {
			meta = append(meta, id)
		} else {
			data = append(data, id)
		}
	})
	target := int(targetNodeRatio * float64(g.NumNodes()))
	if target < len(meta) {
		target = len(meta)
	}
	// Keep all metadata nodes.
	for _, id := range meta {
		b.node(id)
	}
	// Degree-weighted sampling of data nodes: heavy hubs survive, mirroring
	// how supernode grouping preserves high-degree structure.
	budget := target - len(meta)
	if budget > len(data) {
		budget = len(data)
	}
	totalDeg := 0
	for _, id := range data {
		totalDeg += g.Degree(id)
	}
	kept := make(map[graph.NodeID]struct{}, budget)
	for len(kept) < budget && totalDeg > 0 {
		r := rng.Intn(totalDeg)
		for _, id := range data {
			r -= g.Degree(id)
			if r < 0 {
				kept[id] = struct{}{}
				break
			}
		}
	}
	// Number the kept nodes in graph order, not map order, so the
	// compressed graph — and every walk over it — follows the seed.
	for _, id := range data {
		if _, ok := kept[id]; ok {
			b.node(id)
		}
	}
	// Re-add edges whose both endpoints survived; sparsify to ~85%.
	g.Edges(func(x, y graph.NodeID) {
		_, okX := b.ids[x]
		_, okY := b.ids[y]
		if okX && okY && rng.Float64() < 0.85 {
			b.dst.AddEdge(b.ids[x], b.ids[y])
		}
	})
	return b.dst
}
