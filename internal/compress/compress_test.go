package compress

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tdmatch/tdmatch/internal/graph"
)

// bipartiteFixture builds a graph with nMeta tuples, nMeta snippets and a
// shared vocabulary; tuple i and snippet i share a dedicated term plus hub
// terms shared by everyone (the ambiguous "audit"-like tokens).
func bipartiteFixture(t *testing.T, nMeta int) *graph.Graph {
	t.Helper()
	g := graph.New(nMeta * 4)
	hub := g.EnsureData("hub")
	for i := 0; i < nMeta; i++ {
		tu, err := g.AddMeta(fmt.Sprintf("t%d", i), graph.Tuple, graph.First)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := g.AddMeta(fmt.Sprintf("p%d", i), graph.Snippet, graph.Second)
		if err != nil {
			t.Fatal(err)
		}
		key := g.EnsureData(fmt.Sprintf("key%d", i))
		noise := g.EnsureData(fmt.Sprintf("noise%d", i))
		g.AddEdge(tu, key)
		g.AddEdge(sn, key)
		g.AddEdge(tu, hub)
		g.AddEdge(sn, hub)
		g.AddEdge(tu, noise)
		// A dangling decoration that shortest paths never need.
		deco := g.EnsureData(fmt.Sprintf("deco%d", i))
		g.AddEdge(noise, deco)
	}
	return g
}

func TestMSPKeepsAllMetadata(t *testing.T) {
	g := bipartiteFixture(t, 10)
	cg := MSP(g, Options{Ratio: 0.25, Seed: 1})
	if got, want := len(cg.MetadataNodes(graph.First)), 10; got != want {
		t.Errorf("first metadata in compressed = %d, want %d", got, want)
	}
	if got, want := len(cg.MetadataNodes(graph.Second)), 10; got != want {
		t.Errorf("second metadata in compressed = %d, want %d", got, want)
	}
	// Every metadata node must be connected (the Algorithm 3 guarantee).
	for _, id := range cg.MetadataNodes(graph.NoSide) {
		if cg.Degree(id) == 0 {
			t.Errorf("metadata node %s isolated after MSP", cg.Label(id))
		}
	}
}

func TestMSPShrinksGraph(t *testing.T) {
	g := bipartiteFixture(t, 30)
	cg := MSP(g, Options{Ratio: 0.25, Seed: 42})
	if cg.NumNodes() >= g.NumNodes() {
		t.Errorf("compressed nodes %d >= original %d", cg.NumNodes(), g.NumNodes())
	}
	if cg.NumEdges() >= g.NumEdges() {
		t.Errorf("compressed edges %d >= original %d", cg.NumEdges(), g.NumEdges())
	}
	// Decorations hang off noise nodes and lie on no metadata-to-metadata
	// shortest path; they must all be gone.
	if _, ok := cg.DataNode("deco0"); ok {
		t.Error("decoration node survived MSP")
	}
}

func TestMSPEdgesComeFromSource(t *testing.T) {
	g := bipartiteFixture(t, 8)
	cg := MSP(g, Options{Ratio: 0.5, Seed: 7})
	cg.Edges(func(a, b graph.NodeID) {
		la, lb := cg.Label(a), cg.Label(b)
		// Find the corresponding source nodes by label.
		sa, okA := g.DataNode(la)
		if !okA {
			sa, okA = g.MetaNode(la)
		}
		sb, okB := g.DataNode(lb)
		if !okB {
			sb, okB = g.MetaNode(lb)
		}
		if !okA || !okB || !g.HasEdge(sa, sb) {
			t.Errorf("compressed edge %s-%s not in source graph", la, lb)
		}
	})
}

func TestMSPMorePairsBiggerGraph(t *testing.T) {
	g := bipartiteFixture(t, 30)
	small := MSP(g, Options{Ratio: 0.05, Seed: 3})
	big := MSP(g, Options{Ratio: 1.5, Seed: 3})
	if small.NumNodes() > big.NumNodes() {
		t.Errorf("ratio 0.05 gave %d nodes > ratio 1.5 gave %d", small.NumNodes(), big.NumNodes())
	}
}

func TestMSPDeterministicForSeed(t *testing.T) {
	g := bipartiteFixture(t, 12)
	a := MSP(g, Options{Ratio: 0.3, Seed: 99})
	b := MSP(g, Options{Ratio: 0.3, Seed: 99})
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Errorf("same seed produced different graphs: %d/%d vs %d/%d",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
}

func TestMSPDegenerateNoSecondCorpus(t *testing.T) {
	g := graph.New(4)
	m, _ := g.AddMeta("t0", graph.Tuple, graph.First)
	d := g.EnsureData("x")
	g.AddEdge(m, d)
	cg := MSP(g, Options{Ratio: 1, Seed: 1})
	if got := len(cg.MetadataNodes(graph.First)); got != 1 {
		t.Errorf("metadata preserved = %d, want 1", got)
	}
}

func TestSSuMKeepsMetadataAndShrinks(t *testing.T) {
	g := bipartiteFixture(t, 25)
	cg := SSuM(g, 0.5, 11)
	if got, want := len(cg.MetadataNodes(graph.NoSide)), 50; got != want {
		t.Errorf("SSuM metadata = %d, want %d", got, want)
	}
	if cg.NumNodes() >= g.NumNodes() {
		t.Errorf("SSuM nodes %d >= source %d", cg.NumNodes(), g.NumNodes())
	}
	// Node budget respected within metadata floor.
	target := int(0.5*float64(g.NumNodes())) + 1
	if cg.NumNodes() > target {
		t.Errorf("SSuM nodes %d > target %d", cg.NumNodes(), target)
	}
}

func TestSSuMTargetBelowMetadataCount(t *testing.T) {
	g := bipartiteFixture(t, 10)
	cg := SSuM(g, 0.01, 2)
	// Metadata nodes are a floor: all 20 survive.
	if got := len(cg.MetadataNodes(graph.NoSide)); got != 20 {
		t.Errorf("metadata floor broken: %d", got)
	}
}

// TestSSuMIsAFunctionOfTheSeed holds SSuM's output graph to its seed,
// node numbering included: walks over the compressed graph follow it.
func TestSSuMIsAFunctionOfTheSeed(t *testing.T) {
	g := bipartiteFixture(t, 25)
	labels := func(cg *graph.Graph) []string {
		var out []string
		cg.Nodes(func(id graph.NodeID) { out = append(out, cg.Label(id)) })
		return out
	}
	want := labels(SSuM(g, 0.5, 11))
	for i := 0; i < 4; i++ {
		if got := labels(SSuM(g, 0.5, 11)); !slices.Equal(got, want) {
			t.Fatalf("call %d numbered the nodes differently:\n got %v\nwant %v", i+2, got, want)
		}
	}
}

func TestSubgraphBuilderPreservesKinds(t *testing.T) {
	g := bipartiteFixture(t, 3)
	ext := g.EnsureExternal("wiki entity")
	hub, _ := g.DataNode("hub")
	g.AddEdge(ext, hub)
	b := newSubgraphBuilder(g)
	b.addPath([]graph.NodeID{ext, hub})
	nid, ok := b.dst.DataNode("wiki entity")
	if !ok || b.dst.Kind(nid) != graph.External {
		t.Errorf("external kind lost: ok=%v kind=%v", ok, b.dst.Kind(nid))
	}
	tu, _ := g.MetaNode("t0")
	b.node(tu)
	mid, ok := b.dst.MetaNode("t0")
	if !ok || b.dst.Kind(mid) != graph.Tuple || b.dst.CorpusSide(mid) != graph.First {
		t.Error("metadata kind/side lost in subgraph")
	}
}
