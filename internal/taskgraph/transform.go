package taskgraph

import "fmt"

// Scale returns a copy of g with every edge weight multiplied by factor
// (message-size scaling) — vertex weights are unchanged.
func Scale(g *Graph, factor float64) *Graph {
	if factor < 0 {
		panic("taskgraph: negative scale factor")
	}
	b := NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		b.SetVertexWeight(v, g.VertexWeight(v))
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				b.AddEdge(v, int(u), w[i]*factor)
			}
		}
	}
	return b.Build(fmt.Sprintf("scale(%s,%g)", g.Name(), factor))
}

// Overlay sums the communication of several phases of the same
// application: all graphs must have the same vertex count; edge weights
// add, vertex weights add. This composes, e.g., a halo-exchange phase
// with a collective phase into one per-iteration graph.
func Overlay(gs ...*Graph) (*Graph, error) {
	if len(gs) == 0 {
		return nil, fmt.Errorf("taskgraph: Overlay needs at least one graph")
	}
	n := gs[0].NumVertices()
	for _, g := range gs[1:] {
		if g.NumVertices() != n {
			return nil, fmt.Errorf("taskgraph: Overlay size mismatch: %d vs %d", g.NumVertices(), n)
		}
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		total := 0.0
		for _, g := range gs {
			total += g.VertexWeight(v)
		}
		b.SetVertexWeight(v, total)
	}
	for _, g := range gs {
		for v := 0; v < n; v++ {
			adj, w := g.Neighbors(v)
			for i, u := range adj {
				if int32(v) < u {
					b.AddEdge(v, int(u), w[i])
				}
			}
		}
	}
	return b.Build(fmt.Sprintf("overlay(x%d)", len(gs))), nil
}

// Permute relabels vertices: new vertex perm[v] takes old vertex v's
// weight and edges. perm must be a bijection on [0, n).
func Permute(g *Graph, perm []int) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("taskgraph: permutation has %d entries for %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("taskgraph: not a permutation")
		}
		seen[p] = true
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(perm[v], g.VertexWeight(v))
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				b.AddEdge(perm[v], perm[u], w[i])
			}
		}
	}
	return b.Build(fmt.Sprintf("permute(%s)", g.Name())), nil
}

// Induced extracts the subgraph on the given vertices: sub-vertex i
// corresponds to vertices[i]; edges leaving the set are dropped.
// Duplicate vertices are rejected.
//
// pos is the caller's scratch: at least g.NumVertices() entries, all -1
// on entry and again on return, error paths included, so one array
// serves every call on a graph and its subgraphs. Induced stamps each
// vertex's sub-id in pos, counts the kept pairs of every parent row
// (each once, from its lower sub-id's side), allocates the sub-graph's
// CSR once at that count, places each pair on both rows in the same
// order, and finishes through FromCSR. The result is the one a Builder
// fed those pairs in that order would build, edge order, weights and
// name included, without its edge list.
func Induced(g *Graph, vertices []int, pos []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(pos) < n {
		panic(fmt.Sprintf("taskgraph: Induced needs %d positions, got %d", n, len(pos)))
	}
	for i, v := range vertices {
		var err error
		if v < 0 || v >= n {
			err = fmt.Errorf("taskgraph: vertex %d out of range", v)
		} else if pos[v] >= 0 {
			err = fmt.Errorf("taskgraph: duplicate vertex %d", v)
		}
		if err != nil {
			for _, u := range vertices[:i] {
				pos[u] = -1
			}
			return nil, err
		}
		pos[v] = int32(i)
	}
	if len(vertices) == 0 {
		return nil, fmt.Errorf("taskgraph: empty vertex set")
	}
	eachPair := func(pair func(a, b int, w float64)) {
		for i, v := range vertices {
			adj, w := g.Neighbors(v)
			for j, u := range adj {
				if k := int(pos[u]); k > i && keepEdge(i, k, w[j]) {
					pair(i, k, w[j])
				}
			}
		}
	}
	f := newCSRFill(len(vertices))
	eachPair(f.count)
	f.alloc()
	eachPair(f.place)
	vwgt := make([]float64, len(vertices))
	for i, v := range vertices {
		vwgt[i] = g.vwgt[v]
		pos[v] = -1
	}
	return f.finish(fmt.Sprintf("induced(%s,%d)", g.Name(), len(vertices)), vwgt), nil
}

// NewPositions returns n entries of -1: the scratch Induced takes for a
// graph of up to n vertices.
func NewPositions(n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return pos
}
