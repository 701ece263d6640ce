package graph

import (
	"testing"
	"testing/quick"
)

// chainGraph builds two parallel three-edge paths a-b-c-d and a-x-y-d.
func chainGraph() (*Graph, []NodeID) {
	g := New(8)
	ids := make([]NodeID, 0, 6)
	for _, l := range []string{"a", "b", "c", "d", "x", "y"} {
		ids = append(ids, g.EnsureData(l))
	}
	g.AddEdge(ids[0], ids[1]) // a-b
	g.AddEdge(ids[1], ids[2]) // b-c
	g.AddEdge(ids[2], ids[3]) // c-d
	g.AddEdge(ids[0], ids[4]) // a-x
	g.AddEdge(ids[4], ids[5]) // x-y
	g.AddEdge(ids[5], ids[3]) // y-d
	return g, ids
}

func TestBFSDistances(t *testing.T) {
	g, ids := chainGraph()
	dist := g.BFSDistances(ids[0])
	want := map[string]int32{"a": 0, "b": 1, "c": 2, "d": 3, "x": 1, "y": 2}
	for i, lbl := range []string{"a", "b", "c", "d", "x", "y"} {
		if dist[ids[i]] != want[lbl] {
			t.Errorf("dist[%s] = %d, want %d", lbl, dist[ids[i]], want[lbl])
		}
	}
	lonely := g.EnsureData("lonely")
	if d := g.BFSDistances(ids[0])[lonely]; d != -1 {
		t.Errorf("unreachable dist = %d, want -1", d)
	}
}

func TestAllShortestPaths(t *testing.T) {
	g, ids := chainGraph()
	paths := g.AllShortestPaths(ids[0], ids[3], 0)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2 (a-b-c-d and a-x-y-d)", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Errorf("path length = %d nodes, want 4", len(p))
		}
		if p[0] != ids[0] || p[len(p)-1] != ids[3] {
			t.Errorf("path endpoints wrong: %v", p)
		}
		// Consecutive nodes must be adjacent.
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Errorf("non-edge %d-%d in path", p[i], p[i+1])
			}
		}
	}
}

func TestAllShortestPathsCap(t *testing.T) {
	g, ids := chainGraph()
	paths := g.AllShortestPaths(ids[0], ids[3], 1)
	if len(paths) != 1 {
		t.Errorf("capped paths = %d, want 1", len(paths))
	}
}

func TestAllShortestPathsSameNode(t *testing.T) {
	g, ids := chainGraph()
	paths := g.AllShortestPaths(ids[0], ids[0], 0)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Errorf("self path = %v", paths)
	}
}

func TestAllShortestPathsDisconnected(t *testing.T) {
	g, ids := chainGraph()
	lonely := g.EnsureData("lonely")
	if p := g.AllShortestPaths(ids[0], lonely, 0); p != nil {
		t.Errorf("disconnected pair returned %v", p)
	}
}

func TestShortestPath(t *testing.T) {
	g, ids := chainGraph()
	p := g.ShortestPath(ids[0], ids[2])
	if len(p) != 3 {
		t.Errorf("ShortestPath length = %d nodes, want 3", len(p))
	}
	if g.ShortestPath(ids[0], g.EnsureData("iso")) != nil {
		t.Error("disconnected ShortestPath must be nil")
	}
}

// Property: on random graphs, BFS distance obeys the triangle inequality
// over edges — |dist(u) - dist(v)| <= 1 for every edge (u,v) reachable
// from the source.
func TestBFSTriangleProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		g := New(16)
		ids := make([]NodeID, 12)
		for i := range ids {
			ids[i] = g.EnsureData(string(rune('a' + i)))
		}
		for _, p := range pairs {
			g.AddEdge(ids[int(p>>8)%12], ids[int(p&0xff)%12])
		}
		dist := g.BFSDistances(ids[0])
		ok := true
		g.Edges(func(a, b NodeID) {
			da, db := dist[a], dist[b]
			if da >= 0 && db >= 0 {
				diff := da - db
				if diff < -1 || diff > 1 {
					ok = false
				}
			}
			if (da < 0) != (db < 0) {
				ok = false // one endpoint reachable, the other not: impossible
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every returned shortest path has the BFS distance as its edge
// count, and all returned paths have equal length.
func TestShortestPathLengthProperty(t *testing.T) {
	f := func(pairs []uint16, srcDst uint16) bool {
		g := New(16)
		ids := make([]NodeID, 10)
		for i := range ids {
			ids[i] = g.EnsureData(string(rune('a' + i)))
		}
		for _, p := range pairs {
			g.AddEdge(ids[int(p>>8)%10], ids[int(p&0xff)%10])
		}
		src := ids[int(srcDst>>8)%10]
		dst := ids[int(srcDst&0xff)%10]
		dist := g.BFSDistances(src)
		paths := g.AllShortestPaths(src, dst, 8)
		if dist[dst] < 0 {
			return paths == nil
		}
		for _, p := range paths {
			if int32(len(p)-1) != dist[dst] {
				return false
			}
		}
		return len(paths) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketer(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 200}
	b := NewBucketer(vals)
	if b == nil {
		t.Fatal("NewBucketer returned nil")
	}
	if b.Width() <= 0 {
		t.Fatalf("width = %f", b.Width())
	}
	if b.Canonical("abc") != "abc" {
		t.Error("non-numeric term must pass through")
	}
	c1, c2 := b.Canonical("1"), b.Canonical("1.4")
	if c1 == "1" {
		t.Error("numeric term not bucketed")
	}
	_ = c2
}

func TestBucketerDegenerate(t *testing.T) {
	if NewBucketer(nil) != nil {
		t.Error("nil values must give nil bucketer")
	}
	if NewBucketer([]float64{5}) != nil {
		t.Error("single value must give nil bucketer")
	}
	if NewBucketer([]float64{5, 5, 5, 5}) != nil {
		t.Error("zero IQR must give nil bucketer")
	}
	if NewBucketerWidth(0, -1) != nil {
		t.Error("negative width must give nil bucketer")
	}
	var nb *Bucketer
	if nb.Canonical("5") != "5" {
		t.Error("nil bucketer must be identity")
	}
	if nb.Merge([]string{"5"}) != nil {
		t.Error("nil bucketer Merge must be nil")
	}
}

func TestBucketerWidthMonotonic(t *testing.T) {
	b := NewBucketerWidth(0, 10)
	// Bucket index is monotone in the value.
	prev := -1 << 30
	for v := 0; v < 100; v += 3 {
		lbl := b.Canonical(itoa(v))
		var idx int
		if _, err := sscanf(lbl, &idx); err != nil {
			t.Fatalf("bad bucket label %q", lbl)
		}
		if idx < prev {
			t.Fatalf("bucket index decreased: %d after %d", idx, prev)
		}
		prev = idx
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func sscanf(lbl string, idx *int) (int, error) {
	n := 0
	*idx = 0
	for i := len("num#"); i < len(lbl); i++ {
		*idx = *idx*10 + int(lbl[i]-'0')
		n++
	}
	return n, nil
}

func TestCollectNumeric(t *testing.T) {
	vals := CollectNumeric([]string{"42", "abc", "3.5", "pulp fiction", "7"})
	if len(vals) != 3 {
		t.Errorf("CollectNumeric = %v, want 3 values", vals)
	}
}
