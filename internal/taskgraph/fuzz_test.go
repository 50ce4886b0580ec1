package taskgraph

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzReadJSON holds ParseJSON, the one-pass reader and its
// encoding/json fallback, to referenceReadJSON: the same verdict on every
// input and, on a graph, the same name, weights, CSR and bytes written
// back. Every graph either reader accepts must write back.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"name":"x","vertexWeights":[1,1],"edges":[[0,1]],"edgeWeights":[5]}`)
	f.Add(`{"vertexWeights":[]}`)
	f.Add(`{"vertexWeights":[1],"edges":[[0,0]],"edgeWeights":[1]}`)
	f.Add(`garbage`)
	f.Add(`{"vertexWeights":[1,1],"edges":[[0,9]],"edgeWeights":[1]}`)
	f.Add(string(benchInline(f)))
	// One seed per spelling the one-pass reader leaves to encoding/json.
	const tail = `"vertexWeights":[1,2],"edges":[[0,1]],"edgeWeights":[3]}`
	f.Add(`{"name":"a\u0062",` + tail)
	f.Add(`{"name":"n\u00e4me",` + tail)
	f.Add(`{"name":"x","extra":[1],` + tail)
	f.Add(`{"NAME":"x","vertexweights":[1,2],"Edges":[[0,1]],"edgeWeights":[3]}`)
	f.Add(`{"name":null,"vertexWeights":[1],"edges":null,"edgeWeights":null}`)
	f.Add(`{"edges":[[0,1]],"edges":[[1,0]],` + tail)
	// Numbers at the edge of the grammar and of float64.
	f.Add(`{"name":"x","vertexWeights":[1e400,1],"edges":[[0,1]],"edgeWeights":[3]}`)
	f.Add(`{"name":"x","vertexWeights":[-0,1],"edges":[[0,1]],"edgeWeights":[-0]}`)
	f.Add(`{"name":"x","vertexWeights":[01,1],"edges":[[0,1]],"edgeWeights":[3]}`)
	// Edges without two endpoints, and data after the graph.
	f.Add(`{"name":"x","vertexWeights":[1,1,1],"edges":[[0,1,2]],"edgeWeights":[3]}`)
	f.Add(`{"name":"x","vertexWeights":[1,1,1],"edges":[[2]],"edgeWeights":[3]}`)
	f.Add(`{"name":"x",` + tail + ` x`)
	// Repeated edges whose weights sum past float64's range.
	f.Add(`{"name":"x","vertexWeights":[1,1],"edges":[[0,1],[1,0]],"edgeWeights":[1e308,1e308]}`)
	f.Fuzz(func(t *testing.T, data string) {
		checkReadersAgree(t, []byte(data))
	})
}

// FuzzWriteJSONMatchesEncoder holds AppendJSON to json.Encoder byte for
// byte on graphs whose names and weights the fuzzer picks: data[0] sets
// the vertex count, then each byte picks a weight from jsonWeights or,
// past its end, takes the next eight bytes as a float64's bits.
func FuzzWriteJSONMatchesEncoder(f *testing.F) {
	f.Add("g", []byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add("<a&b>", []byte{0})
	f.Add("line\u2028para\u2029", []byte{3, 0, 1, 2, 3, 4, 5, 6})
	f.Add("\xff\xfe\xc3(", []byte{2, 7, 8})
	f.Add("q\"b\\s\b\f\n\r\t\x01\x1f\x7f \u00e9", []byte{9, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add("bits", []byte{5, 255, 1, 0, 0, 0, 0, 0, 0, 0, 255, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		g := fuzzWeightedGraph(name, data)
		want, werr := referenceWriteJSON(g)
		prefix := []byte("prefix")
		got, err := g.AppendJSON(prefix)
		if (err == nil) != (werr == nil) {
			t.Fatalf("AppendJSON error %v, encoder error %v", err, werr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed AppendJSON left %q", got)
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix" {
			t.Fatalf("AppendJSON wrote\n%q\nencoder wrote\n%q", got[len(prefix):], want)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("WriteJSON wrote %q (%v), want %q", buf.Bytes(), err, want)
		}
	})
}

// jsonWeights are the weights whose formatting json.Encoder special-cases
// or that sit at a boundary of it: signed zeros, subnormals, both sides
// of the 1e-6 and 1e21 cut-offs between plain and exponent notation, and
// the extremes.
var jsonWeights = []float64{
	1, 0, math.Copysign(0, -1), 5e-324, 1e-310, 2.2250738585072014e-308,
	1e-7, 9.999999999999999e-7, 1e-6, 1.5e-6, 0.1, 123456.789, 1e5,
	1e20, 9.999999999999998e20, 1e21, 1.5e21, 1e100, math.MaxFloat64,
	-1, -1e-7, -1e21, -2.5,
}

// fuzzWeightedGraph builds a graph on 1 + data[0]%24 vertices with an
// edge between consecutive vertices and a chord per vertex, then sets
// every vertex and edge weight from the rest of data (see
// FuzzWriteJSONMatchesEncoder). The weights are written straight into
// the CSR, so a negative or non-finite one reaches the writer too.
func fuzzWeightedGraph(name string, data []byte) *Graph {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % 24
		data = data[1:]
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v-1, v, 1)
		b.AddEdge(v, (v*7)%n, 1)
	}
	g := b.Build(name)
	next := func() float64 {
		if len(data) == 0 {
			return 1
		}
		c := int(data[0])
		data = data[1:]
		if c < len(jsonWeights) || len(data) < 8 {
			return jsonWeights[c%len(jsonWeights)]
		}
		bits := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return math.Float64frombits(bits)
	}
	for v := range g.vwgt {
		g.vwgt[v] = next()
	}
	for v := 0; v < n; v++ {
		for i := g.xadj[v]; i < g.xadj[v+1]; i++ {
			if u := g.adjncy[i]; int32(v) < u {
				g.adjwgt[i] = next()
			}
		}
	}
	return g
}
