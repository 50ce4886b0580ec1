package core

import (
	"fmt"
	"testing"

	"repro/internal/hiertopo"
	"repro/internal/topology"
)

// requireDistsMatch fails unless NewDists picks to's oracle by the
// policy — labels on a labelled machine, no matrix on an Ephemeral one,
// the cached matrix otherwise — and every source of to's distances — the
// one NewDists picks, the matrix MatrixDists keeps for the incremental
// engine, the closed form NewDists falls back to under
// SetDistanceMatrixCap(0), and ClosedDists — answers to.Distance for
// every pair (a, b) with a in rows, and answers Dist(b, a) the same:
// fillScaledRow reads a processor's row as its column.
func requireDistsMatch(t *testing.T, to topology.Topology, rows []int) {
	t.Helper()
	_, ephemeral := to.(topology.Ephemeral)
	closed := topology.ClosedDists(to)
	labelled := closed.Labels() != nil
	oracle := topology.NewDists(to)
	if (oracle.Matrix() != nil) != (!ephemeral && !labelled) {
		t.Fatalf("%s: NewDists has a matrix: %v, Ephemeral: %v, labelled: %v", to.Name(), oracle.Matrix() != nil, ephemeral, labelled)
	}
	if (oracle.Labels() != nil) != labelled {
		t.Fatalf("%s: NewDists reads labels: %v, ClosedDists has them: %v", to.Name(), oracle.Labels() != nil, labelled)
	}
	if cached := topology.CachedDistances(to); cached != oracle.Matrix() {
		t.Fatalf("%s: CachedDistances %p, NewDists's matrix %p", to.Name(), cached, oracle.Matrix())
	}
	matrix := topology.MatrixDists(to)
	if (matrix.Matrix() == nil) != ephemeral {
		t.Fatalf("%s: MatrixDists has a matrix: %v, Ephemeral: %v", to.Name(), matrix.Matrix() != nil, ephemeral)
	}
	if matrix.Matrix() != nil && matrix.Labels() != nil {
		t.Fatalf("%s: MatrixDists answers from the matrix and carries labels", to.Name())
	}
	prev := topology.SetDistanceMatrixCap(0)
	noMatrix := topology.NewDists(to)
	noMatrixInc := topology.MatrixDists(to)
	topology.SetDistanceMatrixCap(prev)
	if noMatrix.Matrix() != nil || noMatrixInc.Matrix() != nil || closed.Matrix() != nil {
		t.Fatalf("%s: a matrix with the cap at 0 or from ClosedDists", to.Name())
	}
	sources := []struct {
		name string
		d    *topology.Dists
	}{{"NewDists", &oracle}, {"MatrixDists", &matrix}, {"no-matrix", &noMatrix}, {"ClosedDists", &closed}}
	for _, a := range rows {
		for b := 0; b < to.Nodes(); b++ {
			want := to.Distance(a, b)
			for _, src := range sources {
				if got := src.d.Dist(a, b); got != want {
					t.Fatalf("%s: %s Dist(%d,%d) = %d, Distance %d", to.Name(), src.name, a, b, got, want)
				}
				if got := src.d.Dist(b, a); got != want {
					t.Fatalf("%s: %s Dist(%d,%d) = %d, Distance(%d,%d) %d", to.Name(), src.name, b, a, got, a, b, want)
				}
			}
		}
	}
}

// requireSubsetMatches fails unless the subset view answers its base
// machine's distance between the processors it stands for, and carries
// labels exactly when the oracle it was built over reads them.
func requireSubsetMatches(t *testing.T, s *subsetTopology, base topology.Topology) {
	t.Helper()
	if (s.Labels() != nil) != (s.d.Labels() != nil) {
		t.Fatalf("%s: carries labels: %v, its oracle reads them: %v", s.Name(), s.Labels() != nil, s.d.Labels() != nil)
	}
	for i, a := range s.reps {
		for j, b := range s.reps {
			if got, want := s.Distance(i, j), base.Distance(int(a), int(b)); got != want {
				t.Fatalf("%s: Distance(%d,%d) = %d, %s.Distance(%d,%d) = %d", s.Name(), i, j, got, base.Name(), a, b, want)
			}
		}
	}
}

// TestDistsMatchDistance: the oracle is the machine. On every row of
// topology.Machines() at small sizes, grids on both sides of the 64-bit
// label boundary, a hierarchy, a connected Graph, the Graph of a labelled
// torus (no labels, so NewDists keeps the matrix) and the subset adapter
// over each of the oracle's sources, each source answers
// Topology.Distance on every pair, in both orders.
func TestDistsMatchDistance(t *testing.T) {
	// Labels: 64 bits, extent-2 rings and extent-1 dimensions. Coordinate
	// form: 65 bits, and an odd ring.
	machines := []topology.Topology{
		topology.MustTorus(128), topology.MustMesh(65), topology.MustTorus(2, 2),
		topology.MustTorus(1, 6, 1), topology.MustMesh(1, 5, 1, 3),
		topology.MustTorus(130), topology.MustMesh(66), topology.MustTorus(4, 3),
	}
	shapes := map[int][][]int{0: {{5}, {1, 4}, {3, 4}, {2, 3, 2}}, 1: {{0}, {4}}, 2: {{2, 3}, {3, 2}}}
	for _, row := range topology.Machines() {
		for _, dims := range shapes[row.Arity] {
			m, err := row.New(dims)
			if err != nil {
				t.Fatalf("%s%v: %v", row.Kind, dims, err)
			}
			machines = append(machines, m)
		}
	}
	g, err := topology.NewGraph(7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	h := mustHier(t, "pod:2@70/rack:2@7/node:4@3:torus-2x2")
	machines = append(machines, g, h, topology.FromTopology(topology.MustTorus(4, 2)))
	for _, base := range []topology.Topology{topology.MustTorus(4, 3), topology.MustTorus(4, 2), topology.MustHypercube(4), h} {
		// Every other processor, last first: a subset in no order of its own.
		var reps []int32
		for q := base.Nodes() - 1; q >= 0; q -= 2 {
			reps = append(reps, int32(q))
		}
		for _, d := range []topology.Dists{topology.NewDists(base), topology.MatrixDists(base), topology.ClosedDists(base)} {
			s := newSubsetTopology(d, reps, fmt.Sprintf("subset(%s,%d)", base.Name(), len(reps)))
			requireSubsetMatches(t, s, base)
			machines = append(machines, s)
		}
	}
	for _, m := range machines {
		all := make([]int, m.Nodes())
		for a := range all {
			all[a] = a
		}
		requireDistsMatch(t, m, all)
	}
}

// FuzzDistsMatchDistance: the same agreement on a machine read from the
// bytes — a row of topology.Machines() and its extents, a connected Graph,
// a hierarchy, or a subset of a grid or hypercube over its matrix or its
// closed form — checked on the row of one processor read from the
// remaining bytes.
func FuzzDistsMatchDistance(f *testing.F) {
	f.Add([]byte{0, 3, 4, 2, 3, 7})
	f.Add([]byte{1, 1, 5, 9})
	f.Add([]byte{2, 5, 30})
	f.Add([]byte{3, 2, 2, 11})
	f.Add([]byte{4, 8, 1, 3, 6, 2, 5, 0, 4})
	f.Add([]byte{5, 2, 2, 9, 3, 3, 40})
	f.Add([]byte{6, 1, 0, 3, 9, 4, 4, 7, 1, 2})
	f.Add([]byte{0, 128, 127, 0, 40})   // torus:128, 64-bit labels
	f.Add([]byte{1, 129, 65, 1, 50})    // mesh:66,2: 66 bits, coordinates
	f.Add([]byte{6, 0, 128, 129, 9, 3}) // a subset of torus:130
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rows := topology.Machines()
		var to topology.Topology
		switch k := next() % (len(rows) + 3); {
		case k < len(rows):
			to = fuzzMachine(t, rows[k], next)
		case k == len(rows):
			to = fuzzGraph(t, next)
		case k == len(rows)+1:
			to = fuzzHier(t, next)
		default:
			base := fuzzMachine(t, rows[next()%3], next) // torus, mesh or hypercube
			seen := make([]bool, base.Nodes())
			var reps []int32
			for i := next() % base.Nodes(); i >= 0; i-- {
				if q := next() % base.Nodes(); !seen[q] {
					seen[q] = true
					reps = append(reps, int32(q))
				}
			}
			d := topology.ClosedDists(base)
			if next()%2 == 0 {
				d = topology.MatrixDists(base)
			}
			s := newSubsetTopology(d, reps, fmt.Sprintf("subset(%s,%v)", base.Name(), reps))
			requireSubsetMatches(t, s, base)
			to = s
		}
		requireDistsMatch(t, to, []int{next() % to.Nodes()})
	})
}

// fuzzMachine builds a machine of row's kind with at most 3 dimensions of
// extent 1–6, or, when the high bit of the dimension byte is set, 1 or 2
// dimensions whose first extent is 1–140: a mesh or torus on either side
// of the 64-bit label boundary (a hypercube of dimension 0–6, a fat-tree
// of arity 2–4 and 1–3 levels).
func fuzzMachine(t *testing.T, row topology.MachineRow, next func() int) topology.Topology {
	var dims []int
	switch row.Kind {
	case "hypercube":
		dims = []int{next() % 7}
	case "fattree":
		dims = []int{2 + next()%3, 1 + next()%3}
	default:
		k := next()
		if k >= 128 {
			dims = []int{1 + next()%140, 1 + next()%6}[:1+k%2]
			break
		}
		dims = make([]int, 1+k%3)
		for i := range dims {
			dims[i] = 1 + next()%6
		}
	}
	m, err := row.New(dims)
	if err != nil {
		t.Fatalf("%s%v: %v", row.Kind, dims, err)
	}
	return m
}

// fuzzGraph builds a connected Graph on 1–12 nodes: a random spanning tree
// (node v joins a node below it) plus extra edges read from the bytes.
func fuzzGraph(t *testing.T, next func() int) topology.Topology {
	n := 1 + next()%12
	seen := map[[2]int]bool{}
	var edges [][2]int
	add := func(a, b int) {
		if key := [2]int{min(a, b), max(a, b)}; a != b && !seen[key] {
			seen[key] = true
			edges = append(edges, [2]int{a, b})
		}
	}
	for v := 1; v < n; v++ {
		add(v, next()%v)
	}
	for extra := next() % (n + 1); extra > 0; extra-- {
		add(next()%n, next()%n)
	}
	g, err := topology.NewGraph(n, edges)
	if err != nil {
		t.Fatalf("graph %v: %v", edges, err)
	}
	return g
}

// fuzzHier builds a hierarchy of one or two levels, fan-outs 1–3, whole
// costs and a small leaf.
func fuzzHier(t *testing.T, next func() int) topology.Topology {
	levels := make([]hiertopo.Level, 1+next()%2)
	cost := 1
	for i := len(levels) - 1; i >= 0; i-- {
		cost += next() % 20
		levels[i] = hiertopo.Level{Name: fmt.Sprintf("l%d", i), Count: 1 + next()%3, Cost: float64(cost)}
	}
	leaves := []string{"", "mesh-3", "torus-2x3", "hypercube-2", "fattree-2x2"}
	h, err := hiertopo.New(levels, leaves[next()%len(leaves)])
	if err != nil {
		t.Fatal(err)
	}
	return h
}
