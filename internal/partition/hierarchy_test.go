package partition

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/taskgraph"
)

// TestHierarchyConservation checks that every level of the coarsening
// hierarchy conserves total vertex weight and total finest-task count,
// that every cmap is a valid onto map with at most two members per coarse
// vertex, and that adjacency stays symmetric with matching weights.
func TestHierarchyConservation(t *testing.T) {
	g := taskgraph.Stencil9(32, 32, 1000)
	n := g.NumVertices()
	h := BuildHierarchy(g, 64)
	if len(h.Levels) == 0 {
		t.Fatal("no coarsening happened")
	}
	wantV := g.TotalLoad()
	prevN := n
	for li, lvl := range h.Levels {
		if lvl.N >= prevN {
			t.Fatalf("level %d has %d vertices, previous had %d", li, lvl.N, prevN)
		}
		sumV, sumT := 0.0, 0
		for v := 0; v < lvl.N; v++ {
			sumV += lvl.Vwgt[v]
			sumT += int(lvl.TcountOf(int32(v)))
		}
		if sumT != n {
			t.Fatalf("level %d carries %d finest tasks, want %d", li, sumT, n)
		}
		if math.Abs(sumV-wantV) > 1e-6*wantV {
			t.Fatalf("level %d vertex weight %g, want %g", li, sumV, wantV)
		}
		cmap := h.Cmaps[li]
		if len(cmap) != prevN {
			t.Fatalf("level %d cmap has %d entries, want %d", li, len(cmap), prevN)
		}
		members := make([]int, lvl.N)
		for v, c := range cmap {
			if c < 0 || int(c) >= lvl.N {
				t.Fatalf("level %d cmap[%d] = %d out of [0,%d)", li, v, c, lvl.N)
			}
			members[c]++
		}
		for c, m := range members {
			if m < 1 || m > 2 {
				t.Fatalf("level %d coarse vertex %d has %d members", li, c, m)
			}
		}
		checkSymmetric(t, li, lvl)
		prevN = lvl.N
	}
	if coarsest := h.Levels[len(h.Levels)-1]; coarsest.N > 64 {
		t.Fatalf("coarsest level has %d vertices, want <= 64", coarsest.N)
	}
}

func checkSymmetric(t *testing.T, li int, lvl *CGraph) {
	t.Helper()
	type edge struct{ a, b int32 }
	w := make(map[edge]float64)
	for v := int32(0); v < int32(lvl.N); v++ {
		for i := lvl.Xadj[v]; i < lvl.Xadj[v+1]; i++ {
			w[edge{v, lvl.Adjncy[i]}] = lvl.Adjwgt[i]
		}
	}
	for e, wf := range w {
		wr, ok := w[edge{e.b, e.a}]
		if !ok {
			t.Fatalf("level %d edge (%d,%d) has no reverse", li, e.a, e.b)
		}
		if wf != wr {
			t.Fatalf("level %d edge (%d,%d) weight %g != reverse %g", li, e.a, e.b, wf, wr)
		}
	}
}

// TestHierarchyDeterministic pins BuildHierarchy to byte-identical output
// at any GOMAXPROCS: the matching preference scan is parallel, but commits
// are serial with lowest-index tie-breaks.
func TestHierarchyDeterministic(t *testing.T) {
	g := taskgraph.Random(2000, 8000, 100, 1000, 11)
	var ref *Hierarchy
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		h := BuildHierarchy(g, 100)
		runtime.GOMAXPROCS(prev)
		if ref == nil {
			ref = h
			continue
		}
		if !reflect.DeepEqual(ref, h) {
			t.Fatalf("hierarchy differs at GOMAXPROCS=%d", procs)
		}
	}
}

// TestHierarchyMaxTasks checks the merged-task cap, ceil(2·n / coarsenTo),
// on a graph where it binds: a 1 000-ring halves at every level while
// 1 000 isolated tasks never match, so the ring's vertices reach the cap
// of 8 with the level still far above coarsenTo, and coarsening must stop
// there rather than merge 8 + 8.
func TestHierarchyMaxTasks(t *testing.T) {
	const ring, n, coarsenTo = 1000, 2000, 500
	const limit = 2 * n / coarsenTo
	b := taskgraph.NewBuilder(n)
	for v := 0; v < ring; v++ {
		b.AddEdge(v, (v+1)%ring, 1000)
	}
	h := BuildHierarchy(b.Build("ring+isolated"), coarsenTo)
	most := int32(0)
	for li, lvl := range h.Levels {
		for v := int32(0); v < int32(lvl.N); v++ {
			tc := lvl.TcountOf(v)
			if tc > limit {
				t.Fatalf("level %d vertex %d merged %d tasks, cap %d", li, v, tc, limit)
			}
			most = max(most, tc)
		}
	}
	if coarsest := h.Levels[len(h.Levels)-1]; most != limit || coarsest.N <= coarsenTo {
		t.Fatalf("largest vertex holds %d tasks at %d vertices; want the cap %d to stop coarsening above %d",
			most, coarsest.N, limit, coarsenTo)
	}
}

// TestContractExactCapacity pins contract's count-then-fill sizing: on
// every level of BuildHierarchy and of Multilevel's coarsening, the
// coarse adjacency is allocated at exactly the edges it keeps.
func TestContractExactCapacity(t *testing.T) {
	cases := []struct {
		name string
		g    *taskgraph.Graph
	}{
		{"stencil9:64,64", taskgraph.Stencil9(64, 64, 1e5)},
		{"rgg:4096,8", taskgraph.RandomGeometricDeg(4096, 8, 1e5, 1)},
	}
	exact := func(what string, li int, lvl *CGraph) {
		t.Helper()
		if cap(lvl.Adjncy) != len(lvl.Adjncy) || cap(lvl.Adjwgt) != len(lvl.Adjwgt) {
			t.Errorf("%s level %d: Adjncy %d/%d, Adjwgt %d/%d (len/cap)", what, li,
				len(lvl.Adjncy), cap(lvl.Adjncy), len(lvl.Adjwgt), cap(lvl.Adjwgt))
		}
	}
	for _, c := range cases {
		h := BuildHierarchy(c.g, 64)
		if len(h.Levels) < 2 {
			t.Fatalf("%s: BuildHierarchy made %d levels", c.name, len(h.Levels))
		}
		for li, lvl := range h.Levels {
			exact(c.name+" BuildHierarchy", li, lvl)
		}
		// Multilevel's coarsening loop at k = 256, its default CoarsenTo.
		const k = 256
		cur := FromTaskGraph(c.g)
		maxVwgt := 1.5 * cur.totalVwgt() / k
		ar := &arena{}
		ar.forCoarsening(cur.N)
		rng := rand.New(rand.NewSource(1))
		levels := 0
		for cur.N > 4*k {
			coarse, _ := coarsen(cur, rng, maxVwgt, ar)
			exact(c.name+" coarsen", levels, coarse)
			if coarse.N >= cur.N || float64(coarse.N) > 0.95*float64(cur.N) {
				break
			}
			cur = coarse
			levels++
		}
		if levels < 2 {
			t.Fatalf("%s: Multilevel's coarsening made %d levels", c.name, levels)
		}
	}
}
