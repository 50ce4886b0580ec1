package taskgraph

import "fmt"

// Transpose builds the communication of a 2D FFT-style transpose on an
// n × n logical matrix of tasks: task (i,j) exchanges with task (j,i).
// Transposes are the classic long-range pattern that punishes
// topology-oblivious placement.
func Transpose(n int, msgBytes float64) *Graph {
	if n < 2 {
		panic("taskgraph: Transpose needs n >= 2")
	}
	b := NewBuilder(n * n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i*n+j, j*n+i, msgBytes)
		}
	}
	return b.Build(fmt.Sprintf("transpose(%d)", n))
}

// BinaryTree builds a complete binary reduction tree on n tasks (heap
// numbering: children of v are 2v+1 and 2v+2), each edge carrying
// msgBytes per iteration — the shape of reductions and broadcasts.
func BinaryTree(n int, msgBytes float64) *Graph {
	if n < 1 {
		panic("taskgraph: BinaryTree needs n >= 1")
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/2, msgBytes)
	}
	return b.Build(fmt.Sprintf("bintree(%d)", n))
}

// Butterfly builds the recursive-doubling / FFT butterfly pattern on
// 2^stages tasks: in stage k, task r exchanges with r XOR 2^k. The edge
// set is exactly the binary hypercube.
func Butterfly(stages int, msgBytes float64) *Graph {
	if stages < 1 || stages > 20 {
		panic("taskgraph: Butterfly stages must be in [1,20]")
	}
	n := 1 << uint(stages)
	b := NewBuilder(n)
	for k := 1; k < n; k <<= 1 {
		for r := 0; r < n; r++ {
			if p := r ^ k; r < p {
				b.AddEdge(r, p, msgBytes)
			}
		}
	}
	return b.Build(fmt.Sprintf("butterfly(%d)", stages))
}
