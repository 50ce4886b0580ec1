package topology

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// nextGraphID hands out process-unique graph ids; two Graphs with equal
// node and edge counts (hence equal Name()) must never share a cached
// distance matrix.
var nextGraphID atomic.Uint64

// Graph is an arbitrary undirected network given by explicit adjacency
// lists. Distances are unweighted shortest paths computed by breadth-first
// search and cached per source on first use; Route returns a BFS shortest
// path. Graph supports irregular machines the closed-form topologies
// cannot express (the mapping algorithms "work for arbitrary network
// topologies", per the paper).
type Graph struct {
	n    int
	id   uint64 // process-unique, see CachedDistances
	adj  [][]int
	name string

	mu   sync.Mutex
	dist [][]int32 // dist[src] filled lazily
	prev [][]int32 // BFS predecessor for Route, filled with dist
}

var _ Router = (*Graph)(nil)

// NewGraph builds a graph on n nodes from undirected edges. Self-loops,
// duplicate edges and disconnected graphs are rejected (every pair of
// processors must have a distance); endpoints must be in [0, n).
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	if n < 1 || n > MaxNodes {
		return nil, fmt.Errorf("topology: graph must have 1..%d nodes, got %d", MaxNodes, n)
	}
	g := &Graph{n: n, id: nextGraphID.Add(1), adj: make([][]int, n), name: fmt.Sprintf("graph(n=%d,m=%d)", n, len(edges))}
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("topology: edge (%d,%d) endpoint out of range [0,%d)", a, b, n)
		}
		if a == b {
			return nil, fmt.Errorf("topology: self-loop at node %d", a)
		}
		key := [2]int{min(a, b), max(a, b)}
		if seen[key] {
			return nil, fmt.Errorf("topology: duplicate edge (%d,%d)", a, b)
		}
		seen[key] = true
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
	}
	g.dist = make([][]int32, n)
	g.prev = make([][]int32, n)
	for v, d := range g.row(0) {
		if d < 0 {
			return nil, fmt.Errorf("topology: graph is disconnected: node %d is unreachable from node 0", v)
		}
	}
	return g, nil
}

// FromTopology materializes any Topology as an explicit Graph (useful for
// testing closed-form distances against BFS).
func FromTopology(t Topology) *Graph {
	n := t.Nodes()
	var edges [][2]int
	for a := 0; a < n; a++ {
		for _, b := range t.Neighbors(a) {
			if a < b {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		panic(err) // a valid Topology cannot produce invalid edges
	}
	g.name = "graph[" + t.Name() + "]"
	return g
}

// Nodes implements Topology.
func (g *Graph) Nodes() int { return g.n }

// Name implements Topology.
func (g *Graph) Name() string { return g.name }

// Neighbors implements Topology.
func (g *Graph) Neighbors(a int) []int {
	checkNode(a, g.n)
	return g.adj[a]
}

// Distance implements Topology.
func (g *Graph) Distance(a, b int) int {
	checkNode(a, g.n)
	checkNode(b, g.n)
	return int(g.row(a)[b])
}

// Route implements Router, following BFS predecessors from b back to a.
func (g *Graph) Route(path []int, a, b int) []int {
	checkNode(a, g.n)
	checkNode(b, g.n)
	g.row(a) // fills prev[a] on first use
	g.mu.Lock()
	prev := g.prev[a]
	g.mu.Unlock()
	// Collect b..a then reverse in place onto path.
	start := len(path)
	for cur := int32(b); ; cur = prev[cur] {
		path = append(path, int(cur))
		if int(cur) == a {
			break
		}
	}
	for i, j := start, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Diameter returns the largest pairwise distance. It is O(n·m).
func (g *Graph) Diameter() int {
	diam := 0
	for a := 0; a < g.n; a++ {
		for _, v := range g.row(a) {
			if int(v) > diam {
				diam = int(v)
			}
		}
	}
	return diam
}

// bfsRow fills dist (length n) with BFS distances from src, -1 marking a
// node not reached, and prev, unless nil, with each node's BFS predecessor
// (-1 for src). queue is caller-provided scratch with capacity n; bfsRow
// touches no shared state, so distance-matrix construction can run one
// BFS per goroutine without locking.
func (g *Graph) bfsRow(src int, dist, prev, queue []int32) {
	for i := range dist {
		dist[i] = -1
	}
	for i := range prev {
		prev[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du
				if prev != nil {
					prev[v] = u
				}
				queue = append(queue, int32(v))
			}
		}
	}
}

// row returns the cached BFS distance row for src, computing it and the
// predecessors Route follows on first use. Safe for concurrent callers.
func (g *Graph) row(src int) []int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dist[src] == nil {
		g.dist[src], g.prev[src] = make([]int32, g.n), make([]int32, g.n)
		g.bfsRow(src, g.dist[src], g.prev[src], make([]int32, 0, g.n))
	}
	return g.dist[src]
}
