package graph

// This file implements the breadth-first shortest-path primitives used by
// the MSP compression algorithm (§III-B): single-source distances and the
// enumeration of all shortest paths between a node pair.

// BFSDistances returns the hop distance from src to every node, -1 when
// unreachable. dist is indexed by NodeID up to g.Cap().
func (g *Graph) BFSDistances(src NodeID) []int32 {
	dist := make([]int32, g.Cap())
	for i := range dist {
		dist[i] = -1
	}
	if g.removed[src] {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// AllShortestPaths enumerates the shortest paths from src to dst, capped at
// maxPaths to bound the (potentially exponential) enumeration; maxPaths <= 0
// means 16, the cap used by our MSP implementation. It returns nil when dst
// is unreachable.
func (g *Graph) AllShortestPaths(src, dst NodeID, maxPaths int) [][]NodeID {
	if maxPaths <= 0 {
		maxPaths = 16
	}
	if g.removed[src] || g.removed[dst] {
		return nil
	}
	if src == dst {
		return [][]NodeID{{src}}
	}
	// Forward BFS from src recording distances.
	dist := g.BFSDistances(src)
	if dist[dst] < 0 {
		return nil
	}
	// Backtrack from dst along strictly-decreasing distances, DFS with cap.
	var paths [][]NodeID
	path := []NodeID{dst}
	var dfs func(cur NodeID)
	dfs = func(cur NodeID) {
		if len(paths) >= maxPaths {
			return
		}
		if cur == src {
			rev := make([]NodeID, len(path))
			for i, n := range path {
				rev[len(path)-1-i] = n
			}
			paths = append(paths, rev)
			return
		}
		for _, nb := range g.Neighbors(cur) {
			if dist[nb] == dist[cur]-1 {
				path = append(path, nb)
				dfs(nb)
				path = path[:len(path)-1]
				if len(paths) >= maxPaths {
					return
				}
			}
		}
	}
	dfs(dst)
	return paths
}

// ShortestPath returns one shortest path between src and dst (nil when
// disconnected).
func (g *Graph) ShortestPath(src, dst NodeID) []NodeID {
	p := g.AllShortestPaths(src, dst, 1)
	if len(p) == 0 {
		return nil
	}
	return p[0]
}
