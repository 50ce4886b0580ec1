package topology

import "fmt"

// LinkSet gives every directed link of a topology a dense id, so per-link
// state (queues, byte loads) can live in slices. Every undirected edge
// yields two links, one per direction, matching full-duplex hardware
// channels. It is a CSR of the neighbour lists: links are numbered by
// source, then in Neighbors order.
type LinkSet struct {
	off []int32 // node a's links are ids off[a] .. off[a+1]-1
	to  []int32 // the head of each link
}

// EnumerateLinks builds the LinkSet of t. No topology repeats a neighbour,
// so the ids are exactly the positions in the concatenated Neighbors lists.
func EnumerateLinks(t Topology) *LinkSet {
	n := t.Nodes()
	ls := &LinkSet{off: make([]int32, n+1)}
	for a := 0; a < n; a++ {
		for _, b := range t.Neighbors(a) {
			ls.to = append(ls.to, int32(b))
		}
		ls.off[a+1] = int32(len(ls.to))
	}
	return ls
}

// Len returns the number of directed links.
func (ls *LinkSet) Len() int { return len(ls.to) }

// Row returns the links out of node a: their heads, in Neighbors order, and
// the id of the first; the i-th has id first+i. The slice must not be
// modified.
func (ls *LinkSet) Row(a int) (first int32, to []int32) {
	return ls.off[a], ls.to[ls.off[a]:ls.off[a+1]]
}

// Index returns the id of the directed link from a to b by scanning a's
// (constant-degree) row. It panics if (a, b) is not a link.
func (ls *LinkSet) Index(a, b int) int {
	for i := ls.off[a]; i < ls.off[a+1]; i++ {
		if ls.to[i] == int32(b) {
			return int(i)
		}
	}
	panic(fmt.Sprintf("topology: (%d,%d) is not a link", a, b))
}
