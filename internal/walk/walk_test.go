package walk

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tdmatch/tdmatch/internal/graph"
)

func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.EnsureData(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(ids[i], ids[(i+1)%n])
	}
	return g
}

func TestGenerateCounts(t *testing.T) {
	g := ringGraph(t, 10)
	seqs := GeneratePacked(g, Config{NumWalks: 3, Length: 7, Seed: 1})
	if seqs.Len() != 30 {
		t.Fatalf("walks = %d, want 30", seqs.Len())
	}
	for i := range seqs.Len() {
		if n := len(seqs.Seq(i)); n != 7 {
			t.Errorf("walk length = %d, want 7", n)
		}
	}
}

func TestGenerateWalksFollowEdges(t *testing.T) {
	g := ringGraph(t, 8)
	seqs := GeneratePacked(g, Config{NumWalks: 2, Length: 10, Seed: 2})
	for i := range seqs.Len() {
		w := seqs.Seq(i)
		for j := 0; j+1 < len(w); j++ {
			if !g.HasEdge(graph.NodeID(w[j]), graph.NodeID(w[j+1])) {
				t.Fatalf("walk step %d-%d is not an edge", w[j], w[j+1])
			}
		}
	}
}

func TestGenerateStartsEveryNode(t *testing.T) {
	g := ringGraph(t, 5)
	seqs := GeneratePacked(g, Config{NumWalks: 2, Length: 3, Seed: 3})
	startCount := map[graph.NodeID]int{}
	for i := range seqs.Len() {
		startCount[graph.NodeID(seqs.Seq(i)[0])]++
	}
	g.Nodes(func(id graph.NodeID) {
		if startCount[id] != 2 {
			t.Errorf("node %d started %d walks, want 2", id, startCount[id])
		}
	})
}

func TestGenerateIsolatedNode(t *testing.T) {
	g := graph.New(2)
	g.EnsureData("alone")
	seqs := GeneratePacked(g, Config{NumWalks: 2, Length: 5, Seed: 4})
	if seqs.Len() != 2 {
		t.Fatalf("walks = %d", seqs.Len())
	}
	for i := range seqs.Len() {
		if w := seqs.Seq(i); len(w) != 1 {
			t.Errorf("isolated walk = %v, want single node", w)
		}
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	g := ringGraph(t, 20)
	w1 := GeneratePacked(g, Config{NumWalks: 4, Length: 9, Seed: 7, Workers: 1})
	w8 := GeneratePacked(g, Config{NumWalks: 4, Length: 9, Seed: 7, Workers: 8})
	if !slices.Equal(w1.Offsets, w8.Offsets) || !slices.Equal(w1.Tokens, w8.Tokens) {
		t.Fatal("walks differ between 1 and 8 workers")
	}
}

func TestGenerateSeedChangesWalks(t *testing.T) {
	g := ringGraph(t, 20)
	a := GeneratePacked(g, Config{NumWalks: 2, Length: 9, Seed: 1})
	b := GeneratePacked(g, Config{NumWalks: 2, Length: 9, Seed: 2})
	if slices.Equal(a.Tokens, b.Tokens) {
		t.Error("different seeds produced identical walks")
	}
}

func TestGenerateSkipsRemovedNodes(t *testing.T) {
	g := ringGraph(t, 6)
	var victim graph.NodeID
	g.Nodes(func(id graph.NodeID) { victim = id })
	g.RemoveNode(victim)
	seqs := GeneratePacked(g, Config{NumWalks: 1, Length: 5, Seed: 5})
	if seqs.Len() != 5 {
		t.Fatalf("walks = %d, want 5 (one per live node)", seqs.Len())
	}
	if slices.Contains(seqs.Tokens, int32(victim)) {
		t.Fatal("walk visited removed node")
	}
}

// referenceWalks regenerates the packed walks with an independent
// straight-line walker over the same per-(node, walk) RNG streams,
// reading neighbors through the generic accessor on the unfrozen graph.
func referenceWalks(g *graph.Graph, cfg Config) [][]graph.NodeID {
	cfg = cfg.withDefaults()
	var out [][]graph.NodeID
	g.Nodes(func(id graph.NodeID) {
		for k := 0; k < cfg.NumWalks; k++ {
			rng := newRand(uint64(cfg.Seed), uint64(id), uint64(k))
			walk := []graph.NodeID{id}
			cur := id
			for len(walk) < cfg.Length {
				nbs := g.Neighbors(cur)
				if len(nbs) == 0 {
					break
				}
				cur = nbs[rng.intn(len(nbs))]
				walk = append(walk, cur)
			}
			out = append(out, walk)
		}
	})
	return out
}

// TestGeneratePackedMatchesReference cross-checks the packed fast path
// (fixed-size slots, CSR fast loop, compaction) against the independent
// reference walker, on both a frozen and an unfrozen graph, including a
// dead-end node that forces real compaction.
func TestGeneratePackedMatchesReference(t *testing.T) {
	g := ringGraph(t, 12)
	g.EnsureData("island") // isolated: single-token walks force compaction
	cfg := Config{NumWalks: 3, Length: 9, Seed: 42}
	want := referenceWalks(g, cfg)

	for _, frozen := range []bool{false, true} {
		if frozen {
			g.Freeze()
		}
		seqs := GeneratePacked(g, cfg)
		if seqs.Len() != len(want) {
			t.Fatalf("frozen=%v: %d packed walks, want %d", frozen, seqs.Len(), len(want))
		}
		if len(seqs.Offsets) != seqs.Len()+1 || seqs.Offsets[0] != 0 {
			t.Fatalf("frozen=%v: malformed offsets", frozen)
		}
		if int(seqs.Offsets[seqs.Len()]) != len(seqs.Tokens) {
			t.Fatalf("frozen=%v: offsets do not cover the token stream", frozen)
		}
		for i, w := range want {
			s := seqs.Seq(i)
			if len(s) != len(w) {
				t.Fatalf("frozen=%v: walk %d length %d, want %d", frozen, i, len(s), len(w))
			}
			for j := range w {
				if graph.NodeID(s[j]) != w[j] {
					t.Fatalf("frozen=%v: walk %d diverges at step %d", frozen, i, j)
				}
			}
		}
	}
}

// TestGeneratePackedEmptyGraph covers the zero-node corner.
func TestGeneratePackedEmptyGraph(t *testing.T) {
	g := graph.New(0)
	seqs := GeneratePacked(g, Config{NumWalks: 2, Length: 4, Seed: 1})
	if seqs.Len() != 0 || seqs.NumTokens() != 0 {
		t.Fatalf("empty graph produced %d walks, %d tokens", seqs.Len(), seqs.NumTokens())
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.NumWalks <= 0 || c.Length <= 0 || c.Workers <= 0 {
		t.Errorf("defaults not applied: %+v", c)
	}
}
