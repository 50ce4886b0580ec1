package taskgraph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMetis: arbitrary input must yield a graph or an error — never a
// panic, runaway allocation, or a weight that is negative or not finite.
func FuzzReadMetis(f *testing.F) {
	f.Add("3 3 000\n2 3\n1 3\n1 2\n")
	f.Add("2 1 011\n5 2 7\n3 1 7\n")
	f.Add("% comment\n1 0\n\n")
	f.Add("999999999999 1\n")
	f.Add("3 2")
	f.Add("")
	f.Add("2 1 011\n-5 2 7\n3 1 7\n")
	f.Add("2 1 011\n5 2 -7\n3 1 -7\n")
	f.Add("2 1 011\nNaN 2 7\n3 1 7\n")
	f.Add("2 1 001\n2 Inf\n1 Inf\n")
	f.Add("2 1 001\n2 -inf\n1 -inf\n")
	f.Add("2 1 001\n2 nan\n1 nan\n")
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadMetis(strings.NewReader(data))
		if err == nil && g == nil {
			t.Fatal("nil graph without error")
		}
		if g != nil {
			// A vertex weight is one field; an edge weight may sum repeats of
			// a neighbour, so only overflow, never a NaN, may make it infinite.
			for v, w := range g.VertexWeights() {
				if !validWeight(w) {
					t.Fatalf("vertex %d has weight %v", v, w)
				}
			}
			_, _, adjwgt := g.CSR()
			for _, w := range adjwgt {
				if !(w >= 0) {
					t.Fatalf("edge weight %v", w)
				}
			}
			// A returned graph must round-trip through its own writer.
			var buf bytes.Buffer
			if err := g.WriteMetis(&buf); err != nil {
				t.Fatalf("write-back failed: %v", err)
			}
		}
	})
}

// FuzzReadJSON: the JSON reader must validate structure, not trust it.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"name":"x","vertexWeights":[1,1],"edges":[[0,1]],"edgeWeights":[5]}`)
	f.Add(`{"vertexWeights":[]}`)
	f.Add(`{"vertexWeights":[1],"edges":[[0,0]],"edgeWeights":[1]}`)
	f.Add(`garbage`)
	f.Add(`{"vertexWeights":[1,1],"edges":[[0,9]],"edgeWeights":[1]}`)
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadJSON(strings.NewReader(data))
		if err == nil {
			if g == nil {
				t.Fatal("nil graph without error")
			}
			var buf bytes.Buffer
			if err := g.WriteJSON(&buf); err != nil {
				t.Fatalf("write-back failed: %v", err)
			}
			g2, err := ReadJSON(&buf)
			if err != nil {
				t.Fatalf("round-trip failed: %v", err)
			}
			if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
				t.Fatal("round-trip changed the graph")
			}
		}
	})
}
