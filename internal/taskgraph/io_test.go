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

// WriteMetis rounds every weight half up to an integer, numbers vertices
// from 1, lists each edge from both ends in neighbour order and gives an
// isolated vertex a line holding only its weight.
func TestWriteMetisGolden(t *testing.T) {
	g := NewBuilder(5).
		AddEdge(0, 1, 2.5).AddEdge(1, 2, 0.4).AddEdge(2, 0, 6.49).AddEdge(0, 3, 1.5).
		SetVertexWeight(0, 1.5).SetVertexWeight(1, 0.49).SetVertexWeight(3, 7.5).SetVertexWeight(4, 2.5).
		Build("golden")
	const want = "5 4 011\n" +
		"2 2 3 3 6 4 2\n" +
		"0 1 3 3 0\n" +
		"1 1 6 2 0\n" +
		"8 1 2\n" +
		"3\n"
	var buf bytes.Buffer
	if err := g.WriteMetis(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("WriteMetis wrote\n%s\nwant\n%s", got, want)
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
