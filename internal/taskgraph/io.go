package taskgraph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteMetis writes g in the METIS graph-file format (header "n m 011",
// then per-vertex lines "vwgt nbr wgt nbr wgt ..." with 1-based vertex
// ids), for interoperability with external partitioners. Weights are
// rounded to integers as the format requires.
func (g *Graph) WriteMetis(w io.Writer) error {
	bw := bufio.NewWriter(w)
	ew := &errWriter{w: bw}
	ew.printf("%d %d 011\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		ew.printf("%d", int64(g.vwgt[v]+0.5))
		adj, wts := g.Neighbors(v)
		for i, u := range adj {
			ew.printf(" %d %d", u+1, int64(wts[i]+0.5))
		}
		ew.printf("\n")
	}
	if ew.err != nil {
		return ew.err
	}
	return bw.Flush()
}

// errWriter accumulates the first write error so the formatting loop
// above can stay linear; after a failure, further writes are no-ops.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
