package taskgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// inducedReference is Induced as it was before it read the parent's CSR
// directly: a map from vertex to sub-id and an edge-list Builder fed
// each pair from its lower sub-id's side. It is the reference Induced is
// held to bit for bit.
func inducedReference(g *Graph, vertices []int) (*Graph, error) {
	idx := make(map[int]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.NumVertices() {
			return nil, fmt.Errorf("taskgraph: vertex %d out of range", v)
		}
		if _, dup := idx[v]; dup {
			return nil, fmt.Errorf("taskgraph: duplicate vertex %d", v)
		}
		idx[v] = i
	}
	if len(vertices) == 0 {
		return nil, fmt.Errorf("taskgraph: empty vertex set")
	}
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		b.SetVertexWeight(i, g.VertexWeight(v))
		adj, w := g.Neighbors(v)
		for j, u := range adj {
			if k, ok := idx[int(u)]; ok && i < k {
				b.AddEdge(i, k, w[j])
			}
		}
	}
	return b.Build(fmt.Sprintf("induced(%s,%d)", g.Name(), len(vertices))), nil
}

// pickVertices decodes pick as a vertex list for a graph on n vertices:
// empty for no bytes, else a prefix of a permutation the later bytes
// shuffle, in shuffled order. The first byte's low two bits may insert
// one bad vertex: 2 a duplicate, 3 one out of range on either side.
func pickVertices(n int, pick []byte) []int {
	if len(pick) == 0 {
		return nil
	}
	head, rest := int(pick[0]), pick[1:]
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	k := 1 + (head>>2)%n
	for i := 0; i < k && i < len(rest); i++ {
		j := i + int(rest[i])%(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	vertices := perm[:k]
	at := head % (k + 1)
	switch head & 3 {
	case 2:
		vertices = append(vertices[:at:at], append([]int{vertices[head%k]}, vertices[at:]...)...)
	case 3:
		bad := n + head>>4
		if head&4 != 0 {
			bad = -1 - head>>4
		}
		vertices = append(vertices[:at:at], append([]int{bad}, vertices[at:]...)...)
	}
	return vertices
}

// FuzzInducedMatchesReference holds Induced to inducedReference on
// random graphs (vertex weights other than 1, repeated pairs merged by
// the Builder) and random vertex lists, then once more from the result
// through the same, longer, position array, as HierMap's descent does.
// Errors must read the same, and the positions must read -1 afterwards.
func FuzzInducedMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 0, 1, 1, 0, 0, 2, 1, 0, 16, 0, 1}, []byte{4, 1})
	f.Add([]byte{3, 2, 0, 1, 2, 1, 2, 2, 2, 3, 0, 0, 9}, []byte{2, 1, 0})
	f.Add([]byte{3, 2, 0, 1, 2, 1, 2, 2, 2, 3}, []byte{7})
	f.Add([]byte{3, 2, 0, 1, 2, 1, 2, 2, 2, 3}, []byte{3})
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{30, 300, 3000} {
		data, pick := make([]byte, size), make([]byte, 1+size/30)
		rng.Read(data)
		rng.Read(pick)
		f.Add(data, pick)
	}
	f.Fuzz(func(t *testing.T, data, pick []byte) {
		b, _ := replayStream(data)
		g := b.Build("g")
		pos := NewPositions(g.NumVertices() + 3)
		vertices := pickVertices(g.NumVertices(), pick)
		for round := 0; round < 2; round++ {
			got, err := Induced(g, vertices, pos)
			want, wantErr := inducedReference(g, vertices)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("round %d, vertices %v: error %v, want %v", round, vertices, err, wantErr)
			}
			for v, p := range pos {
				if p != -1 {
					t.Fatalf("round %d, vertices %v: pos[%d] = %d after the call, want -1", round, vertices, v, p)
				}
			}
			if wantErr != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, vertices %v: %v", round, vertices, sameGraph(got, want))
			}
			g = got
			rotated := append(append([]byte{}, pick[1:]...), pick[0])
			vertices = pickVertices(g.NumVertices(), rotated)
		}
	})
}
