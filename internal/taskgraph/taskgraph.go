// Package taskgraph represents parallel applications as weighted undirected
// graphs, following the paper's process-based model: vertices are persistent
// communicating tasks (chares, or groups of chares), vertex weights are
// computation load, and edge weights are the total bytes exchanged between
// the two endpoint tasks per iteration — there are no DAG dependencies.
//
// Graphs are stored in compressed sparse row (CSR) form so the mapping
// algorithms' inner loops touch contiguous memory. Every graph is
// finished by FromCSR, which sorts each row and combines duplicate edges
// by summing weights; irregular inputs reach it through a Builder.
package taskgraph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
)

// Graph is an immutable weighted undirected task graph in CSR form.
type Graph struct {
	name   string
	vwgt   []float64 // computation weight per vertex
	xadj   []int32   // CSR row offsets, len n+1
	adjncy []int32   // concatenated adjacency lists
	adjwgt []float64 // edge weight (bytes) parallel to adjncy
}

// FromCSR finishes a graph from CSR arrays and takes ownership of them:
// row v, adj[xadj[v]:xadj[v+1]] with the bytes parallel in wgt, lists v's
// partners, each undirected pair from both sides. Each row is sorted by
// neighbour, stably, and repeated neighbours merge into one entry whose
// weight is their bytes summed in row order starting from 0. That order
// is the whole summation contract: a Builder lists a pair's bytes in
// AddEdge order, so every graph sums exactly as an accumulator per vertex
// pair would.
func FromCSR(name string, vwgt []float64, xadj, adj []int32, wgt []float64) *Graph {
	n := len(vwgt)
	if len(xadj) != n+1 || xadj[0] != 0 || int(xadj[n]) != len(adj) || len(wgt) != len(adj) {
		panic(fmt.Sprintf("taskgraph: malformed CSR: %d vertices, %d offsets, %d neighbours, %d weights",
			n, len(xadj), len(adj), len(wgt)))
	}
	if sortedRows(xadj, adj, wgt) {
		return &Graph{name: name, vwgt: vwgt, xadj: xadj, adjncy: adj, adjwgt: wgt}
	}
	var long *row // sort.Stable's operand, for the rare long unsorted row
	lo, out := int32(0), int32(0)
	for v := 0; v < n; v++ {
		hi := xadj[v+1]
		if out == lo && strictlySorted(adj[lo:hi]) {
			// Nothing merges and nothing moves: each weight is its sum
			// from 0, in place.
			for i := lo; i < hi; i++ {
				wgt[i] = 0 + wgt[i]
			}
			out = hi
			lo = hi
			continue
		}
		if r := adj[lo:hi]; !slices.IsSorted(r) {
			if len(r) <= 16 {
				insertionSortRow(r, wgt[lo:hi])
			} else {
				if long == nil {
					long = new(row)
				}
				long.adj, long.wgt = r, wgt[lo:hi]
				sort.Stable(long)
			}
		}
		first := out
		for i := lo; i < hi; i++ {
			u, w := adj[i], wgt[i]
			if out == first || adj[out-1] != u {
				adj[out], wgt[out] = u, 0
				out++
			}
			wgt[out-1] += w
		}
		xadj[v+1] = out
		lo = hi
	}
	return &Graph{name: name, vwgt: vwgt, xadj: xadj, adjncy: adj[:out], adjwgt: wgt[:out]}
}

// sortedRows is FromCSR's fast path. Most graphs arrive with every row
// strictly sorted, so nothing merges or moves and finishing is each
// weight's 0 + w. sortedRows does that row by row, in fixed chunks of
// buildGrain rows on every core, stops a chunk at its first row that is
// not strictly sorted, and reports whether there was none. When there
// was, FromCSR's serial loop finishes the whole graph; 0 + w is
// idempotent, so the rows already normalised come out the same.
func sortedRows(xadj, adj []int32, wgt []float64) bool {
	n := len(xadj) - 1
	if n <= buildGrain {
		return sortedChunk(xadj, adj, wgt, 0, n)
	}
	var unsorted atomic.Bool
	parallel.For(n, buildGrain, func(lo, hi int) {
		if !unsorted.Load() && !sortedChunk(xadj, adj, wgt, lo, hi) {
			unsorted.Store(true)
		}
	})
	return !unsorted.Load()
}

// sortedChunk normalises the weights of rows [lo, hi) to 0 + w, up to
// the first row that is not strictly sorted, and reports whether there
// was none.
func sortedChunk(xadj, adj []int32, wgt []float64, lo, hi int) bool {
	for v := lo; v < hi; v++ {
		a, b := xadj[v], xadj[v+1]
		if !strictlySorted(adj[a:b]) {
			return false
		}
		for i := a; i < b; i++ {
			wgt[i] = 0 + wgt[i]
		}
	}
	return true
}

// strictlySorted reports whether r is sorted with no repeats.
func strictlySorted(r []int32) bool {
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			return false
		}
	}
	return true
}

// row sorts one CSR row by neighbour, carrying the weights along.
type row struct {
	adj []int32
	wgt []float64
}

func (r *row) Len() int           { return len(r.adj) }
func (r *row) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *row) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wgt[i], r.wgt[j] = r.wgt[j], r.wgt[i]
}

// insertionSortRow is sort.Stable for the short rows nearly every graph
// has, without the interface.
func insertionSortRow(adj []int32, wgt []float64) {
	for i := 1; i < len(adj); i++ {
		for j := i; j > 0 && adj[j] < adj[j-1]; j-- {
			adj[j], adj[j-1] = adj[j-1], adj[j]
			wgt[j], wgt[j-1] = wgt[j-1], wgt[j]
		}
	}
}

// csrFill lays out a CSR by counting sort: count every pair, alloc, place
// every pair again in the same order, then finish. Each row receives its
// entries in placing order, which FromCSR keeps for equal neighbours.
type csrFill struct {
	xadj []int32
	adj  []int32
	wgt  []float64
}

func newCSRFill(n int) *csrFill { return &csrFill{xadj: make([]int32, n+1)} }

func (f *csrFill) count(a, b int, _ float64) {
	f.xadj[a+1]++
	f.xadj[b+1]++
}

// alloc turns the counts into row starts; xadj[v] is then row v's cursor.
func (f *csrFill) alloc() {
	for v := 1; v < len(f.xadj); v++ {
		f.xadj[v] += f.xadj[v-1]
	}
	f.adj = make([]int32, f.xadj[len(f.xadj)-1])
	f.wgt = make([]float64, len(f.adj))
}

func (f *csrFill) place(a, b int, w float64) {
	i := f.xadj[a]
	f.adj[i], f.wgt[i] = int32(b), w
	f.xadj[a]++
	j := f.xadj[b]
	f.adj[j], f.wgt[j] = int32(a), w
	f.xadj[b]++
}

// finish shifts the cursors, each now at its row's end, back to row
// starts and hands the arrays to FromCSR.
func (f *csrFill) finish(name string, vwgt []float64) *Graph {
	copy(f.xadj[1:], f.xadj)
	f.xadj[0] = 0
	return FromCSR(name, vwgt, f.xadj, f.adj, f.wgt)
}

// Builder accumulates vertices and edges for a Graph. The zero Builder is
// not usable; call NewBuilder.
type Builder struct {
	vwgt []float64
	a, b []int32   // endpoints of every kept AddEdge call, in call order
	w    []float64 // its bytes
}

// NewBuilder creates a builder for a graph on n vertices, all with vertex
// weight 1.
func NewBuilder(n int) *Builder {
	if n < 1 {
		panic(fmt.Sprintf("taskgraph: need at least 1 vertex, got %d", n))
	}
	return &Builder{vwgt: ones(n)}
}

// ones returns n vertex weights of 1.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// SetVertexWeight sets the computation weight of v.
func (b *Builder) SetVertexWeight(v int, w float64) *Builder {
	if w < 0 {
		panic("taskgraph: negative vertex weight")
	}
	b.vwgt[v] = w
	return b
}

// AddEdge adds bytes of communication between a and b. Repeated calls for
// the same pair accumulate. Self-communication (a == b) is intra-processor
// by construction and is dropped, matching the paper's model where only
// inter-task edges contribute to hop-bytes.
func (b *Builder) AddEdge(a, v int, bytes float64) *Builder {
	if n := len(b.vwgt); a < 0 || a >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("taskgraph: edge (%d,%d) out of range [0,%d)", a, v, n))
	}
	if keepEdge(a, v, bytes) {
		b.a = append(b.a, int32(a))
		b.b = append(b.b, int32(v))
		b.w = append(b.w, bytes)
	}
	return b
}

// Grow makes room for m more AddEdge calls without reallocating, for
// callers that know their edge count.
func (b *Builder) Grow(m int) {
	b.a = slices.Grow(b.a, m)
	b.b = slices.Grow(b.b, m)
	b.w = slices.Grow(b.w, m)
}

// keepEdge is AddEdge's rule for a pair in range, and every generator's
// that fills a CSR itself: negative bytes panic; self-pairs and zero
// bytes are dropped.
func keepEdge(a, v int, bytes float64) bool {
	if bytes < 0 {
		panic("taskgraph: negative edge weight")
	}
	return a != v && bytes > 0
}

// Build finalizes the graph: the edges are counting-sorted into rows in
// AddEdge order, and FromCSR sorts each row by neighbour and sums
// repeated pairs in that order.
func (b *Builder) Build(name string) *Graph {
	f := newCSRFill(len(b.vwgt))
	for i := range b.a {
		f.count(int(b.a[i]), int(b.b[i]), 0)
	}
	f.alloc()
	for i, w := range b.w {
		f.place(int(b.a[i]), int(b.b[i]), w)
	}
	return f.finish(name, b.vwgt)
}

// Name returns the graph's descriptive name.
func (g *Graph) Name() string { return g.name }

// NumVertices returns the number of tasks.
func (g *Graph) NumVertices() int { return len(g.vwgt) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adjncy) / 2 }

// VertexWeight returns the computation weight of v.
func (g *Graph) VertexWeight(v int) float64 { return g.vwgt[v] }

// Degree returns the number of distinct communication partners of v.
func (g *Graph) Degree(v int) int { return int(g.xadj[v+1] - g.xadj[v]) }

// Neighbors returns v's adjacency and parallel edge-weight slices. The
// returned slices alias internal storage and must not be modified.
func (g *Graph) Neighbors(v int) ([]int32, []float64) {
	lo, hi := g.xadj[v], g.xadj[v+1]
	return g.adjncy[lo:hi], g.adjwgt[lo:hi]
}

// CSR returns the graph's raw compressed-sparse-row arrays: row offsets
// (len n+1), concatenated adjacency, and parallel edge weights. The
// slices alias internal storage and must not be modified; they exist so
// level-structured algorithms (multilevel coarsening) can walk the whole
// graph without per-vertex accessor calls or a defensive copy.
func (g *Graph) CSR() (xadj, adjncy []int32, adjwgt []float64) {
	return g.xadj, g.adjncy, g.adjwgt
}

// VertexWeights returns the per-vertex computation weights. The slice
// aliases internal storage and must not be modified.
func (g *Graph) VertexWeights() []float64 { return g.vwgt }

// EdgeWeight returns the bytes exchanged between a and b (0 if no edge).
// Adjacency lists are sorted, so this is a binary search.
func (g *Graph) EdgeWeight(a, b int) float64 {
	adj, w := g.Neighbors(a)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(b) })
	if i < len(adj) && adj[i] == int32(b) {
		return w[i]
	}
	return 0
}

// TotalComm returns the total communication volume Σ c_ab over undirected
// edges — the denominator of hops-per-byte.
func (g *Graph) TotalComm() float64 {
	sum := 0.0
	for _, w := range g.adjwgt {
		sum += w
	}
	return sum / 2
}

// TotalLoad returns the total computation weight.
func (g *Graph) TotalLoad() float64 {
	sum := 0.0
	for _, w := range g.vwgt {
		sum += w
	}
	return sum
}

// WeightedDegree returns the total communication volume incident to v.
func (g *Graph) WeightedDegree(v int) float64 {
	_, w := g.Neighbors(v)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	return sum
}

// MaxDegree returns the largest vertex degree.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.NumVertices(); v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// AverageDegree returns the mean vertex degree.
func (g *Graph) AverageDegree() float64 {
	return float64(len(g.adjncy)) / float64(g.NumVertices())
}
