package walk

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tdmatch/tdmatch/internal/graph"
)

// starFixture: a metadata hub connected to one attribute node and several
// data nodes.
func starFixture(t *testing.T) (*graph.Graph, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New(8)
	hub, err := g.AddMeta("hub", graph.Tuple, graph.First)
	if err != nil {
		t.Fatal(err)
	}
	attr, err := g.AddMeta("col", graph.Attribute, graph.First)
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(hub, attr)
	for _, l := range []string{"a", "b", "c", "d", "e"} {
		d := g.EnsureData(l)
		g.AddEdge(hub, d)
		g.AddEdge(attr, d)
	}
	return g, hub, attr
}

func TestWeightedWalkExcludesZeroWeightKind(t *testing.T) {
	g, _, attr := starFixture(t)
	seqs := GeneratePacked(g, Config{
		NumWalks: 5, Length: 12, Seed: 1,
		KindWeights: map[graph.NodeKind]float64{graph.Attribute: 0},
	})
	for i := range seqs.Len() {
		if w := seqs.Seq(i); slices.Contains(w[1:], int32(attr)) {
			t.Fatalf("walk stepped onto zero-weight attribute node: %v", w)
		}
	}
}

func TestWeightedWalkStillStartsEverywhere(t *testing.T) {
	g, _, attr := starFixture(t)
	seqs := GeneratePacked(g, Config{
		NumWalks: 2, Length: 6, Seed: 2,
		KindWeights: map[graph.NodeKind]float64{graph.Attribute: 0},
	})
	// Walks still start from the attribute node (only steps are weighted).
	found := false
	for i := range seqs.Len() {
		if seqs.Seq(i)[0] == int32(attr) {
			found = true
		}
	}
	if !found {
		t.Error("attribute node lost its starting walks")
	}
}

func TestWeightedWalkBiasesTowardHeavyKind(t *testing.T) {
	g, hub, attr := starFixture(t)
	// Heavily favor the attribute node from the hub.
	seqs := GeneratePacked(g, Config{
		NumWalks: 200, Length: 2, Seed: 3,
		KindWeights: map[graph.NodeKind]float64{
			graph.Attribute: 50,
			graph.Data:      0.01,
		},
	})
	attrSteps, total := 0, 0
	for i := range seqs.Len() {
		w := seqs.Seq(i)
		if w[0] != int32(hub) || len(w) < 2 {
			continue
		}
		total++
		if w[1] == int32(attr) {
			attrSteps++
		}
	}
	if total == 0 {
		t.Fatal("no hub walks")
	}
	if frac := float64(attrSteps) / float64(total); frac < 0.8 {
		t.Errorf("heavy kind taken only %.2f of steps", frac)
	}
}

func TestWeightedWalkAllZeroNeighborsEndsWalk(t *testing.T) {
	g := graph.New(4)
	m, _ := g.AddMeta("m", graph.Snippet, graph.First)
	d := g.EnsureData("only")
	g.AddEdge(m, d)
	seqs := GeneratePacked(g, Config{
		NumWalks: 2, Length: 10, Seed: 4,
		KindWeights: map[graph.NodeKind]float64{
			graph.Data:    0,
			graph.Snippet: 0,
		},
	})
	for i := range seqs.Len() {
		if w := seqs.Seq(i); len(w) != 1 {
			t.Errorf("walk should end immediately, got %v", w)
		}
	}
}

func TestWeightedWalkDeterministic(t *testing.T) {
	g, _, _ := starFixture(t)
	cfg := Config{
		NumWalks: 4, Length: 8, Seed: 9,
		KindWeights: map[graph.NodeKind]float64{graph.Attribute: 2},
	}
	a := GeneratePacked(g, cfg)
	b := GeneratePacked(g, cfg)
	if !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Tokens, b.Tokens) {
		t.Fatal("weighted walks nondeterministic")
	}
}

// TestUnitKindWeightIsTheUniformWalk: a weight of 1 leaves the step as it
// is, so a map of unit weights walks exactly as nil does. The hub's high
// degree makes any other draw than the uniform step's show.
func TestUnitKindWeightIsTheUniformWalk(t *testing.T) {
	g := graph.New(2001)
	hub, err := g.AddMeta("hub", graph.Tuple, graph.First)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2000 {
		g.AddEdge(hub, g.EnsureData(fmt.Sprintf("d%d", i)))
	}
	g.Freeze()
	uniform := GeneratePacked(g, Config{NumWalks: 4, Length: 8, Seed: 9})
	unit := GeneratePacked(g, Config{
		NumWalks: 4, Length: 8, Seed: 9,
		KindWeights: map[graph.NodeKind]float64{graph.Attribute: 1},
	})
	if !slices.Equal(uniform.Offsets, unit.Offsets) || !slices.Equal(uniform.Tokens, unit.Tokens) {
		t.Fatal("KindWeights{Attribute: 1} walks differ from the uniform walk")
	}
}
