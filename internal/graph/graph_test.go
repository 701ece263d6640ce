package graph

import (
	"testing"
	"testing/quick"
)

func TestEnsureDataDedup(t *testing.T) {
	g := New(4)
	a := g.EnsureData("willis")
	b := g.EnsureData("willis")
	if a != b {
		t.Errorf("EnsureData created duplicate nodes %d %d", a, b)
	}
	if g.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", g.NumNodes())
	}
	if g.Label(a) != "willis" || g.Kind(a) != Data {
		t.Errorf("node meta wrong: %q %v", g.Label(a), g.Kind(a))
	}
}

func TestAddMeta(t *testing.T) {
	g := New(4)
	id, err := g.AddMeta("movies:t0", Tuple, First)
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind(id) != Tuple || g.CorpusSide(id) != First {
		t.Errorf("meta node wrong: %v %v", g.Kind(id), g.CorpusSide(id))
	}
	if _, err := g.AddMeta("movies:t0", Tuple, First); err == nil {
		t.Error("want error on duplicate metadata label")
	}
	if _, err := g.AddMeta("x", Data, NoSide); err == nil {
		t.Error("want error on AddMeta with Data kind")
	}
}

func TestAddEdgeUndirectedDedup(t *testing.T) {
	g := New(4)
	a := g.EnsureData("a")
	b := g.EnsureData("b")
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	g.AddEdge(a, a) // self loop ignored
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Errorf("degrees = %d %d, want 1 1", g.Degree(a), g.Degree(b))
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("HasEdge must be symmetric")
	}
}

func TestRemoveNode(t *testing.T) {
	g := New(4)
	a, b, c := g.EnsureData("a"), g.EnsureData("b"), g.EnsureData("c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.RemoveNode(b)
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Errorf("after remove: n=%d e=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.Removed(b) {
		t.Error("Removed(b) = false")
	}
	if _, ok := g.DataNode("b"); ok {
		t.Error("removed node still resolvable")
	}
	if g.Degree(a) != 0 || g.Degree(c) != 0 {
		t.Error("neighbors not cleaned")
	}
	// Re-adding the same term creates a fresh node.
	nb := g.EnsureData("b")
	if nb == b {
		t.Error("EnsureData returned removed node")
	}
}

func TestMergeData(t *testing.T) {
	g := New(8)
	bruce := g.EnsureData("bruce willis")
	bw := g.EnsureData("b willis")
	p1, _ := g.AddMeta("rev:p1", Snippet, Second)
	t1, _ := g.AddMeta("movies:t1", Tuple, First)
	g.AddEdge(t1, bruce)
	g.AddEdge(p1, bw)
	if err := g.MergeData(bruce, bw); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(p1, bruce) {
		t.Error("edge not rewired to kept node")
	}
	if id, ok := g.DataNode("b willis"); !ok || id != bruce {
		t.Errorf("alias lookup = %d %v, want %d", id, ok, bruce)
	}
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	// Merging metadata nodes must fail.
	if err := g.MergeData(p1, t1); err == nil {
		t.Error("want error merging metadata nodes")
	}
	// Self merge is a no-op.
	if err := g.MergeData(bruce, bruce); err != nil {
		t.Errorf("self merge: %v", err)
	}
}

func TestMetadataAndDataNodeListing(t *testing.T) {
	g := New(8)
	g.EnsureData("x")
	g.EnsureExternal("y")
	t1, _ := g.AddMeta("t1", Tuple, First)
	p1, _ := g.AddMeta("p1", Snippet, Second)
	g.AddMeta("attr", Attribute, First)

	first := g.MetadataNodes(First)
	if len(first) != 1 || first[0] != t1 {
		t.Errorf("MetadataNodes(First) = %v", first)
	}
	second := g.MetadataNodes(Second)
	if len(second) != 1 || second[0] != p1 {
		t.Errorf("MetadataNodes(Second) = %v", second)
	}
	all := g.MetadataNodes(NoSide)
	if len(all) != 2 {
		t.Errorf("MetadataNodes(NoSide) = %v", all)
	}
	if len(g.DataNodes()) != 2 {
		t.Errorf("DataNodes = %v", g.DataNodes())
	}
}

func TestEdgesIteration(t *testing.T) {
	g := New(4)
	a, b, c := g.EnsureData("a"), g.EnsureData("b"), g.EnsureData("c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	count := 0
	g.Edges(func(x, y NodeID) {
		count++
		if x >= y {
			t.Errorf("Edges order violated: %d >= %d", x, y)
		}
	})
	if count != 2 {
		t.Errorf("Edges visited %d, want 2", count)
	}
}

func TestKindHelpers(t *testing.T) {
	if !Tuple.IsMetadata() || !Snippet.IsMetadata() || !Concept.IsMetadata() {
		t.Error("tuple/snippet/concept must be metadata")
	}
	if Data.IsMetadata() || Attribute.IsMetadata() || External.IsMetadata() {
		t.Error("data/attribute/external must not be matchable metadata")
	}
	for _, k := range []NodeKind{Data, Tuple, Attribute, Snippet, Concept, External} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

// Property: after any sequence of edge insertions among n nodes, the sum of
// degrees equals twice the edge count and adjacency is symmetric.
func TestDegreeSumProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		g := New(16)
		ids := make([]NodeID, 16)
		for i := range ids {
			ids[i] = g.EnsureData(string(rune('a' + i)))
		}
		for _, p := range pairs {
			a := ids[int(p>>8)%16]
			b := ids[int(p&0xff)%16]
			g.AddEdge(a, b)
		}
		sum := 0
		g.Nodes(func(id NodeID) {
			sum += g.Degree(id)
			for _, nb := range g.Neighbors(id) {
				if !g.HasEdge(nb, id) {
					t.Fatalf("asymmetric adjacency %d-%d", id, nb)
				}
			}
		})
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreezePreservesAdjacency(t *testing.T) {
	g := New(8)
	ids := make([]NodeID, 6)
	for i := range ids {
		ids[i] = g.EnsureData(string(rune('a' + i)))
	}
	g.AddEdge(ids[0], ids[1])
	g.AddEdge(ids[1], ids[2])
	g.AddEdge(ids[2], ids[3])
	g.RemoveNode(ids[4]) // removed node must stay neighbor-less when frozen

	type adjSnapshot map[NodeID][]NodeID
	snap := func() adjSnapshot {
		s := adjSnapshot{}
		for i := 0; i < g.Cap(); i++ {
			s[NodeID(i)] = append([]NodeID(nil), g.Neighbors(NodeID(i))...)
		}
		return s
	}
	before := snap()

	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Freeze did not freeze")
	}
	g.Freeze() // idempotent
	off, flat := g.CSR()
	if off == nil || len(off) != g.Cap()+1 {
		t.Fatalf("CSR offsets length %d, want %d", len(off), g.Cap()+1)
	}
	if len(flat) != int(off[len(off)-1]) {
		t.Fatal("CSR neighbor slice does not match final offset")
	}
	after := snap()
	for id, want := range before {
		got := after[id]
		if len(got) != len(want) {
			t.Fatalf("node %d: frozen degree %d, want %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d: frozen neighbor %d differs", id, i)
			}
		}
		if g.Degree(id) != len(want) {
			t.Fatalf("node %d: Degree %d, want %d", id, g.Degree(id), len(want))
		}
	}
}

func TestFreezeThawOnMutation(t *testing.T) {
	g := New(4)
	a, b, c := g.EnsureData("a"), g.EnsureData("b"), g.EnsureData("c")
	g.AddEdge(a, b)
	g.Freeze()
	g.AddEdge(b, c) // must thaw transparently
	if g.Frozen() {
		t.Fatal("mutation left the graph frozen")
	}
	if !g.HasEdge(b, c) || g.Degree(b) != 2 {
		t.Fatal("edge added after freeze is missing")
	}
	g.Freeze()
	g.RemoveNode(b)
	if g.Frozen() {
		t.Fatal("RemoveNode left the graph frozen")
	}
	if g.Degree(a) != 0 || g.Degree(c) != 0 {
		t.Fatal("removal after freeze did not drop edges")
	}
}

// TestRemoveNodesMatchesSerial checks the batch mark-and-compact removal
// against one-at-a-time RemoveNode on an identically built graph:
// identical survivors, edges, degrees and index lookups.
func TestRemoveNodesMatchesSerial(t *testing.T) {
	build := func() (*Graph, []NodeID) {
		g := New(16)
		ids := make([]NodeID, 10)
		for i := range ids {
			ids[i] = g.EnsureData(string(rune('a' + i)))
		}
		for i := range ids {
			for j := i + 1; j < len(ids); j += i + 1 {
				g.AddEdge(ids[i], ids[j])
			}
		}
		return g, ids
	}
	serial, ids := build()
	batch, _ := build()
	victims := []NodeID{ids[1], ids[3], ids[4], ids[3], ids[8]} // includes a duplicate
	for _, v := range []NodeID{ids[1], ids[3], ids[4], ids[8]} {
		serial.RemoveNode(v)
	}
	batch.RemoveNodes(victims)
	if serial.NumNodes() != batch.NumNodes() || serial.NumEdges() != batch.NumEdges() {
		t.Fatalf("size mismatch: serial %d/%d, batch %d/%d",
			serial.NumNodes(), serial.NumEdges(), batch.NumNodes(), batch.NumEdges())
	}
	for i := 0; i < serial.Cap(); i++ {
		id := NodeID(i)
		if serial.Removed(id) != batch.Removed(id) {
			t.Fatalf("node %d removed-state mismatch", id)
		}
		if serial.Degree(id) != batch.Degree(id) {
			t.Fatalf("node %d degree mismatch: %d vs %d", id, serial.Degree(id), batch.Degree(id))
		}
		for _, nb := range serial.Neighbors(id) {
			if !batch.HasEdge(id, nb) {
				t.Fatalf("batch removal lost edge %d-%d", id, nb)
			}
		}
	}
	if _, ok := batch.DataNode("b"); ok {
		t.Fatal("removed node still resolvable by label")
	}
	if _, ok := batch.DataNode("a"); !ok {
		t.Fatal("surviving node lost its label index")
	}
	// Re-removing already-removed nodes is a no-op.
	batch.RemoveNodes(victims)
	if batch.NumNodes() != serial.NumNodes() {
		t.Fatal("idempotent batch removal changed the graph")
	}
}

// Property: removing a random subset of nodes keeps degree-sum consistency.
func TestRemovalConsistencyProperty(t *testing.T) {
	f := func(pairs []uint16, removeMask uint16) bool {
		g := New(16)
		ids := make([]NodeID, 16)
		for i := range ids {
			ids[i] = g.EnsureData(string(rune('a' + i)))
		}
		for _, p := range pairs {
			g.AddEdge(ids[int(p>>8)%16], ids[int(p&0xff)%16])
		}
		for i := 0; i < 16; i++ {
			if removeMask&(1<<i) != 0 {
				g.RemoveNode(ids[i])
			}
		}
		sum := 0
		g.Nodes(func(id NodeID) {
			sum += g.Degree(id)
			if g.Removed(id) {
				t.Fatal("Nodes visited removed node")
			}
		})
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
