package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mapBuilder is the Builder as it was before FromCSR: one map of
// accumulated bytes per vertex, each row sorted at Build. It is the
// reference the Builder, the in-place grid fill and partition.Quotient
// are held to bit for bit.
type mapBuilder struct {
	n    int
	vwgt []float64
	adj  []map[int32]float64
}

func newMapBuilder(n int) *mapBuilder {
	b := &mapBuilder{n: n, vwgt: make([]float64, n), adj: make([]map[int32]float64, n)}
	for i := range b.vwgt {
		b.vwgt[i] = 1
	}
	return b
}

func (b *mapBuilder) SetVertexWeight(v int, w float64) { b.vwgt[v] = w }

func (b *mapBuilder) AddEdge(a, v int, bytes float64) {
	if a < 0 || a >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("edge (%d,%d) out of range [0,%d)", a, v, b.n))
	}
	if bytes < 0 {
		panic("negative edge weight")
	}
	if a == v || bytes <= 0 {
		return
	}
	if b.adj[a] == nil {
		b.adj[a] = make(map[int32]float64)
	}
	if b.adj[v] == nil {
		b.adj[v] = make(map[int32]float64)
	}
	b.adj[a][int32(v)] += bytes
	b.adj[v][int32(a)] += bytes
}

func (b *mapBuilder) Build(name string) *Graph {
	g := &Graph{name: name, vwgt: b.vwgt, xadj: make([]int32, b.n+1)}
	for v := 0; v < b.n; v++ {
		keys := make([]int32, 0, len(b.adj[v]))
		for u := range b.adj[v] {
			keys = append(keys, u)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, u := range keys {
			g.adjncy = append(g.adjncy, u)
			g.adjwgt = append(g.adjwgt, b.adj[v][u])
		}
		g.xadj[v+1] = int32(len(g.adjncy))
	}
	return g
}

// sameGraph reports the first difference between two graphs' names,
// vertex weights and CSR arrays, weights compared bit for bit.
func sameGraph(got, want *Graph) error {
	if got.name != want.name {
		return fmt.Errorf("name %q, want %q", got.name, want.name)
	}
	if err := sameBits("vwgt", got.vwgt, want.vwgt); err != nil {
		return err
	}
	if len(got.xadj) != len(want.xadj) || len(got.adjncy) != len(want.adjncy) {
		return fmt.Errorf("%d offsets and %d neighbours, want %d and %d",
			len(got.xadj), len(got.adjncy), len(want.xadj), len(want.adjncy))
	}
	for i := range want.xadj {
		if got.xadj[i] != want.xadj[i] {
			return fmt.Errorf("xadj[%d] = %d, want %d", i, got.xadj[i], want.xadj[i])
		}
	}
	for i := range want.adjncy {
		if got.adjncy[i] != want.adjncy[i] {
			return fmt.Errorf("adjncy[%d] = %d, want %d", i, got.adjncy[i], want.adjncy[i])
		}
	}
	return sameBits("adjwgt", got.adjwgt, want.adjwgt)
}

func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %s, want %d", len(got), what, len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// fuzzWeights are the bytes an edge stream draws from: zero, integers,
// and fractions whose sums depend on the order they are added in.
var fuzzWeights = []float64{0, 1, 0.1, 0.2, 0.3, 1.0 / 3, 7.25, 1e-3, 1e16, 2.5e-300, 1000, 0.7}

// replayStream decodes data as an AddEdge stream into both builders: the
// first byte sizes the graph (1 to 64 vertices), then every three bytes
// are an op. An op either adds an edge (endpoints and a weight drawn from
// the bytes), repeats the previous edge reversed, or sets a vertex
// weight.
func replayStream(data []byte) (*Builder, *mapBuilder) {
	n := 1
	if len(data) > 0 {
		n = 1 + int(data[0])%64
		data = data[1:]
	}
	b, m := NewBuilder(n), newMapBuilder(n)
	prevA, prevV := 0, 0
	for ; len(data) >= 3; data = data[3:] {
		op, x, y := data[0], int(data[1])%n, int(data[2])
		switch op % 8 {
		case 0:
			w := float64(y) / 8
			b.SetVertexWeight(x, w)
			m.SetVertexWeight(x, w)
		case 1:
			w := fuzzWeights[y%len(fuzzWeights)]
			b.AddEdge(prevV, prevA, w)
			m.AddEdge(prevV, prevA, w)
		default:
			v := y % n
			w := fuzzWeights[int(op>>3)%len(fuzzWeights)]
			b.AddEdge(x, v, w)
			m.AddEdge(x, v, w)
			prevA, prevV = x, v
		}
	}
	return b, m
}

// FuzzBuilderMatchesMap holds the Builder to mapBuilder on random AddEdge
// streams: repeats in both orientations, self-pairs, zero and fractional
// bytes, and rows long enough to leave the insertion sort.
func FuzzBuilderMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 1, 1, 0, 0, 2, 1, 0, 16, 0, 1})
	f.Add([]byte{0, 2, 0, 0, 2, 0, 1})
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{30, 300, 3000} {
		data := make([]byte, size)
		rng.Read(data)
		f.Add(data)
	}
	// One vertex against many, in descending order with repeats: a long
	// unsorted row.
	star := []byte{40}
	for i := 0; i < 200; i++ {
		star = append(star, 2+byte(i%8)<<3, 0, byte(39-i%39))
	}
	f.Add(star)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, m := replayStream(data)
		if err := sameGraph(b.Build("g"), m.Build("g")); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGridMatchesMapBuilder holds the in-place stencil fill to the same
// stencil added edge by edge to mapBuilder, on every stencil, beyond the
// sizes TestPatternRows records.
func TestGridMatchesMapBuilder(t *testing.T) {
	cases := []struct {
		ext     []int
		wrap    bool
		stencil []arm
	}{
		{[]int{7}, true, faces1},
		{[]int{9, 6}, false, faces2},
		{[]int{5, 7}, true, faces2},
		{[]int{4, 5, 6}, false, faces3},
		{[]int{13, 11}, false, nine},
		{[]int{6, 5, 4}, false, halo26},
		{[]int{3, 4, 5}, true, halo26},
	}
	for _, c := range cases {
		n := 1
		for _, e := range c.ext {
			n *= e
		}
		m := newMapBuilder(n)
		eachArm(c.ext, c.wrap, c.stencil, 0.3, m.AddEdge)
		if err := sameGraph(grid("g", c.ext, c.wrap, c.stencil, 0.3), m.Build("g")); err != nil {
			t.Errorf("%v wrap=%v: %v", c.ext, c.wrap, err)
		}
	}
}

// TestFromCSRSumsInRowOrder pins the summation contract on one row whose
// sum depends on the order: 0.1, 0.2 and 0.3 in row order, not sorted by
// value.
func TestFromCSRSumsInRowOrder(t *testing.T) {
	g := FromCSR("r", []float64{1, 1, 1},
		[]int32{0, 4, 5, 8},
		[]int32{2, 1, 2, 2, 0, 0, 0, 0},
		[]float64{0.3, 5, 0.2, 0.1, 5, 0.3, 0.2, 0.1})
	want := 0.3 + 0.2 + 0.1
	if w := g.EdgeWeight(0, 2); math.Float64bits(w) != math.Float64bits(want) {
		t.Errorf("EdgeWeight(0,2) = %v, want %v", w, want)
	}
	if w := g.EdgeWeight(2, 0); math.Float64bits(w) != math.Float64bits(want) {
		t.Errorf("EdgeWeight(2,0) = %v, want %v", w, want)
	}
	if g.Degree(0) != 2 || g.NumEdges() != 2 {
		t.Errorf("Degree(0) = %d, NumEdges = %d, want 2 and 2", g.Degree(0), g.NumEdges())
	}
}

// TestFromCSRSortedRowsSumFromZero: a row already sorted without repeats
// is finished in place, and each weight is still its sum from 0, so a
// −0 comes out +0 as it does from a row that merges.
func TestFromCSRSortedRowsSumFromZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	g := FromCSR("z", []float64{1, 1}, []int32{0, 1, 2}, []int32{1, 0}, []float64{negZero, negZero})
	for _, w := range g.adjwgt {
		if math.Float64bits(w) != 0 {
			t.Errorf("weight %v (bits %x), want +0", w, math.Float64bits(w))
		}
	}
}
