package walk

import (
	"fmt"
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
	walks := Generate(g, Config{NumWalks: 3, Length: 7, Seed: 1})
	if len(walks) != 30 {
		t.Fatalf("walks = %d, want 30", len(walks))
	}
	for _, w := range walks {
		if len(w) != 7 {
			t.Errorf("walk length = %d, want 7", len(w))
		}
	}
}

func TestGenerateWalksFollowEdges(t *testing.T) {
	g := ringGraph(t, 8)
	walks := Generate(g, Config{NumWalks: 2, Length: 10, Seed: 2})
	for _, w := range walks {
		for i := 0; i+1 < len(w); i++ {
			if !g.HasEdge(w[i], w[i+1]) {
				t.Fatalf("walk step %d-%d is not an edge", w[i], w[i+1])
			}
		}
	}
}

func TestGenerateStartsEveryNode(t *testing.T) {
	g := ringGraph(t, 5)
	walks := Generate(g, Config{NumWalks: 2, Length: 3, Seed: 3})
	startCount := map[graph.NodeID]int{}
	for _, w := range walks {
		startCount[w[0]]++
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
	walks := Generate(g, Config{NumWalks: 2, Length: 5, Seed: 4})
	if len(walks) != 2 {
		t.Fatalf("walks = %d", len(walks))
	}
	for _, w := range walks {
		if len(w) != 1 {
			t.Errorf("isolated walk = %v, want single node", w)
		}
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	g := ringGraph(t, 20)
	w1 := Generate(g, Config{NumWalks: 4, Length: 9, Seed: 7, Workers: 1})
	w8 := Generate(g, Config{NumWalks: 4, Length: 9, Seed: 7, Workers: 8})
	if len(w1) != len(w8) {
		t.Fatalf("walk counts differ: %d vs %d", len(w1), len(w8))
	}
	for i := range w1 {
		if len(w1[i]) != len(w8[i]) {
			t.Fatalf("walk %d lengths differ", i)
		}
		for j := range w1[i] {
			if w1[i][j] != w8[i][j] {
				t.Fatalf("walk %d diverges at step %d with different worker counts", i, j)
			}
		}
	}
}

func TestGenerateSeedChangesWalks(t *testing.T) {
	g := ringGraph(t, 20)
	a := Generate(g, Config{NumWalks: 2, Length: 9, Seed: 1})
	b := Generate(g, Config{NumWalks: 2, Length: 9, Seed: 2})
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical walks")
	}
}

func TestGenerateSkipsRemovedNodes(t *testing.T) {
	g := ringGraph(t, 6)
	var victim graph.NodeID
	g.Nodes(func(id graph.NodeID) { victim = id })
	g.RemoveNode(victim)
	walks := Generate(g, Config{NumWalks: 1, Length: 5, Seed: 5})
	if len(walks) != 5 {
		t.Fatalf("walks = %d, want 5 (one per live node)", len(walks))
	}
	for _, w := range walks {
		for _, n := range w {
			if n == victim {
				t.Fatal("walk visited removed node")
			}
		}
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

// TestGenerateMatchesPacked pins the adapter contract: the materialized
// [][]NodeID walks are exactly the packed sequences.
func TestGenerateMatchesPacked(t *testing.T) {
	g := ringGraph(t, 10)
	cfg := Config{NumWalks: 2, Length: 6, Seed: 5}
	walks := Generate(g, cfg)
	seqs := GeneratePacked(g, cfg)
	if len(walks) != seqs.Len() {
		t.Fatalf("walk counts differ: %d vs %d", len(walks), seqs.Len())
	}
	for i, w := range walks {
		s := seqs.Seq(i)
		for j := range w {
			if int32(w[j]) != s[j] {
				t.Fatalf("walk %d diverges at %d", i, j)
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
