package taskgraph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// referenceReadJSON is the encoding/json reader ParseJSON replaced, kept
// as its oracle, with the three rules it lacked: every edge lists exactly
// two endpoints, only whitespace follows the object, and repeated edges
// do not sum past float64's range.
func referenceReadJSON(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	if len(jg.VertexWeights) == 0 {
		return nil, errors.New("empty graph")
	}
	if len(jg.Edges) != len(jg.EdgeWeights) {
		return nil, errors.New("edge count mismatch")
	}
	n := len(jg.VertexWeights)
	b := NewBuilder(n)
	for v, w := range jg.VertexWeights {
		if w < 0 {
			return nil, fmt.Errorf("negative weight at vertex %d", v)
		}
		b.SetVertexWeight(v, w)
	}
	for i, e := range jg.Edges {
		if len(e) != 2 {
			return nil, fmt.Errorf("edge %d has %d endpoints", i, len(e))
		}
		a, c := int(e[0]), int(e[1])
		if a < 0 || a >= n || c < 0 || c >= n || a == c {
			return nil, fmt.Errorf("bad edge (%d,%d)", a, c)
		}
		if jg.EdgeWeights[i] < 0 {
			return nil, fmt.Errorf("negative weight on edge (%d,%d)", a, c)
		}
		b.AddEdge(a, c, jg.EdgeWeights[i])
	}
	g := b.Build(jg.Name)
	for _, w := range g.adjwgt {
		if math.IsInf(w, 0) {
			return nil, errors.New("edge weights sum to infinity")
		}
	}
	return g, nil
}

// referenceWriteJSON is the encoding/json writer AppendJSON replaced.
func referenceWriteJSON(g *Graph) ([]byte, error) {
	jg := jsonGraph{Name: g.name, VertexWeights: g.vwgt}
	for v := 0; v < g.NumVertices(); v++ {
		adj, wts := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				jg.Edges = append(jg.Edges, []int32{int32(v), u})
				jg.EdgeWeights = append(jg.EdgeWeights, wts[i])
			}
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&jg)
	return buf.Bytes(), err
}

// benchInline is the inline graph of topomapd's benchmark job, in the
// form WriteJSON writes it.
func benchInline(t testing.TB) []byte {
	data, err := RandomGeometricDeg(256, 6, 1e5, 7).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScanJSONTakesTheWriterSpelling pins which inputs the one-pass
// reader takes itself: the writer's bytes, reordered keys and any
// whitespace, but no spelling that needs encoding/json's rules.
func TestScanJSONTakesTheWriterSpelling(t *testing.T) {
	const tail = `"vertexWeights":[1,2],"edges":[[0,1]],"edgeWeights":[3]}`
	taken := []string{
		string(benchInline(t)),
		`{"name":"x",` + tail,
		`{"edgeWeights":[3],"edges":[[0,1]],"vertexWeights":[1,2],"name":"x"}`,
		" {\n\t\"name\" : \"x\" ,\r\n \"vertexWeights\" : [ 1 , 2 ] , \"edges\" : [ [ 0 , 1 ] ] , \"edgeWeights\" : [ 3 ] } \n",
		`{"name":"x","vertexWeights":[-0,1.5e-3],"edges":[[0,1]],"edgeWeights":[2E+2]}`,
		`{"vertexWeights":[1],"edges":[],"edgeWeights":[]}`,
	}
	for _, in := range taken {
		if _, _, ok := scanJSON([]byte(in)); !ok {
			t.Errorf("scanJSON declined %q", in)
		}
	}
	declined := []string{
		`{"name":"a\u0062",` + tail,
		`{"name":"n` + "ä" + `me",` + tail,
		`{"name":"x","extra":1,` + tail,
		`{"Name":"x",` + tail,
		`{"name":"x","vertexWeights":[1],"edges":null,"edgeWeights":null}`,
		`{"name":"x","name":"y",` + tail,
		`{"name":"x","vertexWeights":[1e400,1],"edges":[[0,1]],"edgeWeights":[3]}`,
		`{"name":"x","vertexWeights":[01,1],"edges":[[0,1]],"edgeWeights":[3]}`,
		`{"name":"x","vertexWeights":[1,2],"edges":[[0,1,1]],"edgeWeights":[3]}`,
		`{"name":"x","vertexWeights":[1,2],"edges":[[1.0,0]],"edgeWeights":[3]}`,
		`{"name":"x",` + tail + `x`,
		`{"name":"x",` + tail + `{}`,
	}
	for _, in := range declined {
		if _, _, ok := scanJSON([]byte(in)); ok {
			t.Errorf("scanJSON took %q", in)
		}
	}
}

// TestReadJSONRefusesMalformedEdgesAndTrailingData: an edge entry with
// other than two endpoints used to be truncated ([0,1,2] read as (0,1))
// or zero-filled ([2] as (2,0)), and whatever followed the object was
// ignored.
func TestReadJSONRefusesMalformedEdgesAndTrailingData(t *testing.T) {
	arity := map[string]int{
		`{"vertexWeights":[1,1,1],"edges":[[0,1,2]],"edgeWeights":[1]}`:      3,
		`{"vertexWeights":[1,1,1],"edges":[[0,1],[2]],"edgeWeights":[1,1]}`:  1,
		`{"edges":[[]],"vertexWeights":[1,1,1],"edgeWeights":[1]}`:           0,
		`{"vertexWeights":[1,1,1],"edges":[null],"edgeWeights":[1]}`:         0,
		`{"name":"g","vertexWeights":[1,1],"edges":[[0]],"edgeWeights":[1]}`: 1,
	}
	for in, endpoints := range arity {
		_, err := ParseJSON([]byte(in))
		var ae *EdgeArityError
		if !errors.As(err, &ae) || ae.Endpoints != endpoints {
			t.Errorf("%s: error %v, want an EdgeArityError with %d endpoints", in, err, endpoints)
		}
	}
	const graph = `{"name":"x","vertexWeights":[1,1],"edges":[[0,1]],"edgeWeights":[1]}`
	for _, tail := range []string{"x", "{}", " 0", "\n]"} {
		if _, err := ReadJSON(strings.NewReader(graph + tail)); err == nil {
			t.Errorf("%q after the graph accepted", tail)
		}
	}
	if _, err := ReadJSON(strings.NewReader(" " + graph + " \t\r\n")); err != nil {
		t.Errorf("whitespace around the graph: %v", err)
	}
}

// TestParseJSONRefusesEdgeSumOverflow: repeated edges are summed, and a
// sum past float64's range has no JSON spelling. Such a graph used to be
// accepted and then fail to write back, which topomapd answered with a
// 500. Each spelling below takes a different reader path.
func TestParseJSONRefusesEdgeSumOverflow(t *testing.T) {
	const want = "taskgraph: the weights of edge (0,1) sum past float64's range"
	for _, in := range []string{
		`{"name":"x","vertexWeights":[1,1],"edges":[[0,1],[1,0]],"edgeWeights":[1e308,1e308]}`,
		`{"name":"\u0078","vertexWeights":[1,1],"edges":[[0,1],[1,0]],"edgeWeights":[1e308,1e308]}`,
	} {
		if g, err := ParseJSON([]byte(in)); err == nil || err.Error() != want {
			t.Errorf("%s: graph %v, error %v, want %q", in, g, err, want)
		}
	}
	// Just inside the range, the sum is kept and written back.
	g, err := ParseJSON([]byte(`{"name":"x","vertexWeights":[1,1],"edges":[[0,1],[1,0]],"edgeWeights":[8e307,8e307]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AppendJSON(nil); err != nil {
		t.Errorf("write-back: %v", err)
	}
}

// checkReadersAgree holds ParseJSON to referenceReadJSON on data: the
// same verdict and, on a graph, the same name, weights, CSR and bytes
// written back.
func checkReadersAgree(t *testing.T, data []byte) {
	t.Helper()
	got, err := ParseJSON(data)
	want, werr := referenceReadJSON(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseJSON error %v, reference error %v", err, werr)
	}
	if err != nil {
		return
	}
	if err := sameGraph(got, want); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := got.AppendJSON(nil)
	if err != nil {
		t.Fatalf("write-back failed: %v", err)
	}
	wantBytes, err := referenceWriteJSON(want)
	if err != nil || !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("written back:\n%s\nreference:\n%s (%v)", gotBytes, wantBytes, err)
	}
	again, err := ParseJSON(gotBytes)
	if err != nil {
		t.Fatalf("re-reading %s: %v", gotBytes, err)
	}
	if err := sameGraph(again, got); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}
