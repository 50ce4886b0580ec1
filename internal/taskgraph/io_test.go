package taskgraph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.VertexWeight(v) != b.VertexWeight(v) {
			t.Fatalf("vertex %d weight %v vs %v", v, a.VertexWeight(v), b.VertexWeight(v))
		}
		adjA, wA := a.Neighbors(v)
		adjB, wB := b.Neighbors(v)
		if len(adjA) != len(adjB) {
			t.Fatalf("vertex %d degree %d vs %d", v, len(adjA), len(adjB))
		}
		for i := range adjA {
			if adjA[i] != adjB[i] || wA[i] != wB[i] {
				t.Fatalf("vertex %d adjacency mismatch", v)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := Random(40, 120, 1, 100, 5)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != g.Name() {
		t.Errorf("name %q vs %q", h.Name(), g.Name())
	}
	graphsEqual(t, g, h)
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"empty graph":     `{"name":"x","vertexWeights":[],"edges":[],"edgeWeights":[]}`,
		"weight mismatch": `{"name":"x","vertexWeights":[1,1],"edges":[[0,1]],"edgeWeights":[]}`,
		"bad edge":        `{"name":"x","vertexWeights":[1,1],"edges":[[0,5]],"edgeWeights":[1]}`,
		"self edge":       `{"name":"x","vertexWeights":[1,1],"edges":[[1,1]],"edgeWeights":[1]}`,
		"negative vwgt":   `{"name":"x","vertexWeights":[-1,1],"edges":[],"edgeWeights":[]}`,
		"negative ewgt":   `{"name":"x","vertexWeights":[1,1],"edges":[[0,1]],"edgeWeights":[-2]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestMetisRoundTrip(t *testing.T) {
	g := NewBuilder(4).
		AddEdge(0, 1, 3).AddEdge(1, 2, 4).AddEdge(2, 3, 5).AddEdge(3, 0, 6).
		SetVertexWeight(0, 2).SetVertexWeight(3, 7).
		Build("sq")
	var buf bytes.Buffer
	if err := g.WriteMetis(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, h)
}

func TestReadMetisPlainFormat(t *testing.T) {
	// Format 000: no weights; comments allowed.
	in := `% a triangle
3 3
2 3
1 3
1 2
`
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got (%d,%d), want (3,3)", g.NumVertices(), g.NumEdges())
	}
	if g.EdgeWeight(0, 1) != 1 {
		t.Errorf("default edge weight = %v, want 1", g.EdgeWeight(0, 1))
	}
}

func TestReadMetisErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"short header":  "5\n",
		"bad n":         "x 3\n",
		"edge mismatch": "2 5 000\n2\n1\n",
		"bad neighbor":  "2 1 000\n9\n1\n",
		"missing ewgt":  "2 1 001\n2\n1 4\n",
		"truncated":     "3 2 000\n2\n",
	}
	for name, in := range cases {
		if _, err := ReadMetis(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// A weight that is negative or not finite is an error naming its vertex,
// not a panic in the builder or a NaN in TotalComm.
func TestReadMetisRejectsBadWeights(t *testing.T) {
	for _, in := range []string{
		"2 1 011\n1 2 7\n-5 1 7\n",
		"2 1 011\n1 2 7\nNaN 1 7\n",
		"2 1 011\n1 2 7\n+Inf 1 7\n",
		"2 1 001\n2 7\n1 -7\n",
		"2 1 001\n2 7\n1 nan\n",
		"2 1 001\n2 7\n1 -Inf\n",
	} {
		_, err := ReadMetis(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "vertex 2") {
			t.Errorf("%q: error %v, want one naming vertex 2", in, err)
		}
	}
}

// Property: JSON round-trip preserves TotalComm and TotalLoad for random
// graphs of varying shape.
func TestPropertyJSONRoundTripTotals(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := 3 + int(nn)%40
		g := Random(n, n*3, 1, 50, seed)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			return false
		}
		h, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		return h.TotalComm() == g.TotalComm() && h.TotalLoad() == g.TotalLoad()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
