package taskgraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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

// ReadMetis parses a METIS graph file with format flag 011 (vertex and
// edge weights present) or 001 (edge weights only) or 000 (no weights).
func ReadMetis(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("taskgraph: metis header: %w", err)
	}
	hdr := strings.Fields(line)
	if len(hdr) < 2 {
		return nil, fmt.Errorf("taskgraph: metis header needs n and m")
	}
	n, err := strconv.Atoi(hdr[0])
	if err != nil || n < 1 || n > 1<<24 {
		return nil, fmt.Errorf("taskgraph: bad vertex count %q", hdr[0])
	}
	m, err := strconv.Atoi(hdr[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("taskgraph: bad edge count %q", hdr[1])
	}
	fmtFlag := "000"
	if len(hdr) >= 3 {
		fmtFlag = hdr[2]
	}
	// METIS format flag "abc": b = vertex weights present, c = edge weights.
	hasVwgt := len(fmtFlag) >= 2 && fmtFlag[len(fmtFlag)-2] == '1'
	hasEwgt := strings.HasSuffix(fmtFlag, "1")
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("taskgraph: metis vertex %d: %w", v+1, err)
		}
		fields := strings.Fields(line)
		i := 0
		if hasVwgt {
			if len(fields) == 0 {
				return nil, fmt.Errorf("taskgraph: metis vertex %d: missing weight", v+1)
			}
			w, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return nil, fmt.Errorf("taskgraph: metis vertex %d weight: %w", v+1, err)
			}
			if !validWeight(w) {
				return nil, fmt.Errorf("taskgraph: metis vertex %d: weight %v is negative or not finite", v+1, w)
			}
			b.SetVertexWeight(v, w)
			i = 1
		}
		for i < len(fields) {
			u, err := strconv.Atoi(fields[i])
			if err != nil || u < 1 || u > n {
				return nil, fmt.Errorf("taskgraph: metis vertex %d: bad neighbor %q", v+1, fields[i])
			}
			i++
			ew := 1.0
			if hasEwgt {
				if i >= len(fields) {
					return nil, fmt.Errorf("taskgraph: metis vertex %d: missing edge weight", v+1)
				}
				ew, err = strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("taskgraph: metis vertex %d edge weight: %w", v+1, err)
				}
				if !validWeight(ew) {
					return nil, fmt.Errorf("taskgraph: metis vertex %d: edge weight %v is negative or not finite", v+1, ew)
				}
				i++
			}
			if u-1 > v { // each undirected edge appears twice; take one side
				b.AddEdge(v, u-1, ew)
			}
		}
	}
	g := b.Build("metis")
	if g.NumEdges() != m {
		return nil, fmt.Errorf("taskgraph: metis header says %d edges, file has %d", m, g.NumEdges())
	}
	return g, nil
}

// validWeight reports whether a parsed weight is one a graph may carry:
// finite and not negative.
func validWeight(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }

func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
