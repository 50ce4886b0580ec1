package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// referenceTopoLB is a deliberately slow, obviously-correct second-order
// TopoLB: every cycle it recomputes the full estimation table from
// scratch instead of maintaining it incrementally. The production
// implementation must select exactly the same task/processor sequence.
func referenceTopoLB(g *taskgraph.Graph, t topology.Topology) Mapping {
	n := t.Nodes()
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)
	taskFree := make([]bool, n)
	procFree := make([]bool, n)
	for i := 0; i < n; i++ {
		taskFree[i] = true
		procFree[i] = true
	}
	freeProcs := n
	// n-scaled fest, matching the production implementation's exact
	// integer-friendly formulation.
	fest := func(v, p int) float64 {
		adj, w := g.Neighbors(v)
		f := 0.0
		for i, u := range adj {
			if pu := m[u]; pu >= 0 {
				f += w[i] * float64(n) * float64(t.Distance(p, pu))
			} else {
				f += w[i] * totalDist[p]
			}
		}
		return f
	}
	for k := 0; k < n; k++ {
		tk, bestGain := -1, 0.0
		for v := 0; v < n; v++ {
			if !taskFree[v] {
				continue
			}
			sum, minVal, found := 0.0, 0.0, false
			for p := 0; p < n; p++ {
				if !procFree[p] {
					continue
				}
				f := fest(v, p)
				sum += f
				if !found || f < minVal {
					minVal, found = f, true
				}
			}
			gain := sum/float64(freeProcs) - minVal
			if tk < 0 || gain > bestGain {
				tk, bestGain = v, gain
			}
		}
		pk := -1
		var minCost float64
		for p := 0; p < n; p++ {
			if !procFree[p] {
				continue
			}
			f := fest(tk, p)
			if pk < 0 || f < minCost {
				pk, minCost = p, f
			}
		}
		m[tk] = pk
		taskFree[tk] = false
		procFree[pk] = false
		freeProcs--
	}
	return m
}

// TestTopoLBMatchesBruteForceReference: the incremental fest-table
// implementation must agree with full recomputation on many random
// instances. Exact float comparisons can differ (float32 table vs float64
// recompute), so agreement is asserted on the resulting hop-bytes within
// a small tolerance, and on exact placements for integer-weight cases.
func TestTopoLBMatchesBruteForceReference(t *testing.T) {
	shapes := []topology.Topology{
		topology.MustTorus(3, 3), topology.MustMesh(4, 3), topology.MustTorus(2, 2, 3),
	}
	for _, to := range shapes {
		n := to.Nodes()
		for seed := int64(0); seed < 10; seed++ {
			// Integer weights keep float32 and float64 arithmetic exact.
			g := taskgraph.Random(n, n*2, 1, 16, seed)
			gi := integerize(g)
			fast, err := TopoLB{}.Map(gi, to)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceTopoLB(gi, to)
			hbFast := HopBytes(gi, to, fast)
			hbRef := HopBytes(gi, to, ref)
			if diff := hbFast - hbRef; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%s seed %d: incremental HB %v != reference HB %v",
					to.Name(), seed, hbFast, hbRef)
			}
			for v := range fast {
				if fast[v] != ref[v] {
					t.Errorf("%s seed %d: placement diverges at task %d (%d vs %d)",
						to.Name(), seed, v, fast[v], ref[v])
					break
				}
			}
		}
	}
}

// integerize rounds all weights to small integers so both implementations
// compute bit-identical estimation values.
func integerize(g *taskgraph.Graph) *taskgraph.Graph {
	n := g.NumVertices()
	b := taskgraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, float64(int(g.VertexWeight(v)+0.5)))
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				b.AddEdge(v, int(u), float64(int(w[i]+0.5)+1))
			}
		}
	}
	return b.Build("int[" + g.Name() + "]")
}

// referenceRowTopoLB is first- and second-order TopoLB as it was before
// the pristine classes: every task owns a stored fest row from the first
// cycle on, filled up front as W_v·totalDist[p], and every free
// non-neighbor row pays its own subtract and its own rescan each cycle.
// It is the oracle for mapIncremental, which must place the same task
// on the same processor in every cycle — and, unlike the brute-force
// reference above, it does the same floating-point operations in the same
// order, so the comparison is exact for any weights at any size. The
// second result is the sequence in which tasks were placed.
func referenceRowTopoLB(g *taskgraph.Graph, t topology.Topology, order Order) (Mapping, []int) {
	n := t.Nodes()
	d := topology.NewDists(t)
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)

	fest := make([]float64, n*n)
	taskFree := make([]bool, n)
	procFree := make([]bool, n)
	fMin := make([]float64, n)
	fMinAt := make([]int, n)
	fSum := make([]float64, n)
	for v := 0; v < n; v++ {
		taskFree[v] = true
		procFree[v] = true
	}
	for v := 0; v < n; v++ {
		row := fest[v*n : (v+1)*n]
		if order == OrderSecond {
			wv := g.WeightedDegree(v)
			for p := 0; p < n; p++ {
				row[p] = wv * totalDist[p]
			}
		}
		rescanRow(row, procFree, &fMin[v], &fMinAt[v], &fSum[v])
	}

	distRow := make([]float64, n)
	isNbr := make([]bool, n)
	seq := make([]int, 0, n)
	freeProcs := n
	for k := 0; k < n; k++ {
		nFree := float64(freeProcs)
		tk, best := -1, 0.0
		for v := 0; v < n; v++ {
			if !taskFree[v] {
				continue
			}
			if gain := fSum[v]/nFree - fMin[v]; tk < 0 || gain > best {
				tk, best = v, gain
			}
		}
		pk := fMinAt[tk]
		m[tk] = pk
		seq = append(seq, tk)
		taskFree[tk] = false
		procFree[pk] = false
		freeProcs--
		if freeProcs == 0 {
			break
		}

		fillScaledRow(&d, distRow, pk, float64(n))
		adj, w := g.Neighbors(tk)
		for i, u32 := range adj {
			u := int(u32)
			isNbr[u] = true
			if !taskFree[u] {
				continue
			}
			c := w[i]
			row := fest[u*n : (u+1)*n]
			if order == OrderSecond {
				for p := 0; p < n; p++ {
					row[p] += c * (distRow[p] - totalDist[p])
				}
			} else {
				for p := 0; p < n; p++ {
					row[p] += c * distRow[p]
				}
			}
			rescanRow(row, procFree, &fMin[u], &fMinAt[u], &fSum[u])
		}
		for v := 0; v < n; v++ {
			if !taskFree[v] || isNbr[v] {
				continue
			}
			fSum[v] -= fest[v*n+pk]
			if fMinAt[v] == pk {
				rescanRow(fest[v*n:(v+1)*n], procFree, &fMin[v], &fMinAt[v], &fSum[v])
			}
		}
		for _, u := range adj {
			isNbr[u] = false
		}
	}
	return m, seq
}

// referenceThirdOrder is third-order TopoLB as it was before it joined
// mapIncremental: the expected distance for an unplaced neighbor is taken
// over the *free* processors, so every fest value changes each cycle and
// the full table is rescanned — O(p²) per cycle, O(p³) total (§4.4). It
// keeps a p×p base table and rescans every free task each cycle, so it is
// the oracle for mapIncremental at OrderThird, placement for placement.
func referenceThirdOrder(g *taskgraph.Graph, t topology.Topology) Mapping {
	n := t.Nodes()
	d := topology.NewDists(t)
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}
	// base[task][p] accumulates the exact first-order part; sumFree[p]
	// tracks Σ_{q free} d(p,q).
	base := make([]float64, n*n)
	sumFree := make([]float64, n)
	topology.TotalDistances(t, sumFree)
	unplacedW := make([]float64, n)
	taskFree := make([]bool, n)
	procFree := make([]bool, n)
	for v := 0; v < n; v++ {
		taskFree[v] = true
		procFree[v] = true
		unplacedW[v] = g.WeightedDegree(v)
	}
	distRow := make([]float64, n)
	freeProcs := n
	for k := 0; k < n; k++ {
		inv := 1 / float64(freeProcs)
		// Ties in gain go to the lowest task id, ties in fest to the
		// lowest processor.
		tk, pk, best := -1, -1, 0.0
		for v := 0; v < n; v++ {
			if !taskFree[v] {
				continue
			}
			row := base[v*n : (v+1)*n]
			mv, ma, sum := 0.0, -1, 0.0
			for p := 0; p < n; p++ {
				if !procFree[p] {
					continue
				}
				f := row[p] + float64(unplacedW[v]*sumFree[p]*inv)
				sum += f
				if ma < 0 || f < mv {
					mv, ma = f, p
				}
			}
			if gain := float64(sum*inv) - mv; tk < 0 || gain > best {
				tk, pk, best = v, ma, gain
			}
		}
		m[tk] = pk
		taskFree[tk] = false
		procFree[pk] = false
		freeProcs--
		if freeProcs == 0 {
			break
		}
		fillScaledRow(&d, distRow, pk, 1)
		for p := range sumFree {
			sumFree[p] -= distRow[p]
		}
		adj, w := g.Neighbors(tk)
		for i, a := range adj {
			u := int(a)
			if !taskFree[u] {
				continue
			}
			c := w[i]
			unplacedW[u] -= c
			row := base[u*n : (u+1)*n]
			for p := 0; p < n; p++ {
				row[p] += float64(c * distRow[p])
			}
		}
	}
	return m
}

// pristineWins counts the cycles after the first whose placed task had no
// placed neighbor: the gain scan was won, and the processor chosen,
// through a class record rather than a materialized row.
func pristineWins(g *taskgraph.Graph, seq []int) int {
	touched := make([]bool, g.NumVertices())
	wins := 0
	for k, tk := range seq {
		if k > 0 && !touched[tk] {
			wins++
		}
		adj, _ := g.Neighbors(tk)
		for _, u := range adj {
			touched[u] = true
		}
	}
	return wins
}

// islands builds two connected components of fractional-weight edges plus
// a tail of isolated zero-degree tasks: while one component is being
// placed the other is still pristine and competes in the gain scan
// through its class records, and the isolated tasks stay pristine to the
// end.
func islands(n int) *taskgraph.Graph {
	b := taskgraph.NewBuilder(n)
	half := n * 3 / 8
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			b.AddEdge(base+i, base+(i+1)%half, 1.3+0.01*float64(i%7))
			b.AddEdge(base+i, base+(i*5+2)%half, 0.7)
		}
	}
	return b.Build(fmt.Sprintf("islands(%d)", n))
}

// TestTopoLBMatchesRowReference demands placement-for-placement equality
// between the class-sharing implementation and the row-per-task one at
// orders 1 and 2, and the p×p table of referenceThirdOrder at order 3
// (on the cases below p = 1024: the reference's O(p³) and the loop's
// worst case would add about 20 s under -race on the rgg graph at
// p = 1024, and minutes at p = 4096), on inputs
// the brute-force check never reaches: fractional weights, a mesh
// (totalDist varies by processor), odd tori and a fat-tree (no labels:
// distances from the matrix), disconnected graphs with isolated tasks,
// all W_v distinct, all W_v equal, the degenerate sizes, weights so large
// that rows overflow and gains are NaN, p = 4096, and an rgg graph, whose
// frontier of live rows is wide.
func TestTopoLBMatchesRowReference(t *testing.T) {
	one := taskgraph.NewBuilder(1).Build("one")
	two := taskgraph.NewBuilder(2).AddEdge(0, 1, 0.731).Build("two")
	cases := []struct {
		g            *taskgraph.Graph
		topo         topology.Topology
		pristineWins bool // some later cycle must place a still-pristine task
	}{
		{one, topology.MustMesh(1), false},
		{two, topology.MustMesh(2), false},
		{two, topology.MustTorus(2), false},
		{taskgraph.Random(64, 192, 0.37, 9.91, 1), topology.MustMesh(8, 8), false},     // W_v all distinct
		{taskgraph.Random(64, 192, 0.37, 9.91, 2), topology.MustTorus(4, 4, 4), false}, // constant totalDist
		{taskgraph.Torus2D(8, 8, 0.3), topology.MustMesh(8, 8), false},                 // W_v all equal
		{taskgraph.Mesh2D(8, 8, 0.3), topology.MustTorus(8, 8), false},                 // three W_v classes
		{islands(64), topology.MustMesh(8, 8), true},
		{islands(64), topology.MustTorus(8, 8), true},
		{taskgraph.Random(256, 1024, 0.37, 9.91, 3), topology.MustMesh(16, 16), false},
		{taskgraph.Mesh2D(16, 16, 1.1), topology.MustTorus(16, 16), false},
		{islands(256), topology.MustMesh(16, 16), true},
		{taskgraph.Random(256, 600, 0.37, 9.91, 4), topology.MustHypercube(8), false},
		{taskgraph.Random(64, 192, 1e306, 1e308, 6), topology.MustTorus(8, 8), false}, // rows overflow: NaN gains
		{taskgraph.Random(35, 90, 0.37, 9.91, 7), topology.MustTorus(5, 7), false},
		{integerize(taskgraph.Random(27, 60, 1, 16, 8)), topology.MustTorus(3, 3, 3), false},
		{taskgraph.Mesh2D(8, 8, 0.3), topology.MustFatTree(4, 3), false},
		{taskgraph.Random(64, 192, 0.37, 9.91, 9), topology.MustFatTree(4, 3), false},
		{taskgraph.RandomGeometricDeg(256, 8, 1.1, 5), topology.MustTorus(16, 16), false},
		{taskgraph.Mesh2D(64, 64, 1.1), topology.MustTorus(64, 64), false},
		{taskgraph.RandomGeometricDeg(1024, 8, 1.1, 5), topology.MustTorus(32, 32), false},
	}
	for _, tc := range cases {
		for _, order := range []Order{OrderFirst, OrderSecond, OrderThird} {
			if order == OrderThird && tc.topo.Nodes() > 576 {
				continue
			}
			seq := requireMatchesReference(t, tc.g, tc.topo, order)
			if tc.pristineWins && pristineWins(tc.g, seq) == 0 {
				t.Errorf("%s on %s, order %d: no pristine task won a gain scan after the first", tc.g.Name(), tc.topo.Name(), order)
			}
		}
	}
}

// requireMatchesReference runs mapIncremental and fails t unless its
// placements and placement order are referenceRowTopoLB's and its rescan
// count is referenceSlotRescans' — at third order, unless its placements
// are referenceThirdOrder's. It returns the placement order.
func requireMatchesReference(t *testing.T, g *taskgraph.Graph, topo topology.Topology, order Order) []int {
	t.Helper()
	seq := make([]int, topo.Nodes())
	got, rescans := TopoLB{}.mapIncremental(g, topo, order, seq)
	if order == OrderThird {
		for v, want := range referenceThirdOrder(g, topo) {
			if got[v] != want {
				t.Fatalf("%s on %s, order %d: task %d on %d, reference %d",
					g.Name(), topo.Name(), order, v, got[v], want)
			}
		}
		return seq
	}
	want, wantSeq := referenceRowTopoLB(g, topo, order)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s on %s, order %d: task %d on %d, reference %d",
				g.Name(), topo.Name(), order, v, got[v], want[v])
		}
	}
	for k := range wantSeq {
		if seq[k] != wantSeq[k] {
			t.Fatalf("%s on %s, order %d: cycle %d placed task %d, reference %d",
				g.Name(), topo.Name(), order, k, seq[k], wantSeq[k])
		}
	}
	if want := referenceSlotRescans(g, topo, order); rescans != want {
		t.Fatalf("%s on %s, order %d: %d rescans, reference %d", g.Name(), topo.Name(), order, rescans, want)
	}
	return wantSeq
}

// FuzzTopoLBMatchesReference turns bytes into a small weighted graph on a
// torus (odd ones read the matrix), mesh, hypercube or fat-tree and holds
// mapIncremental at every order to the references, placement by
// placement. Integral weights 1–16 make tasks share pristine classes;
// fractional ones from 256 values leave most tasks alone in their own.
func FuzzTopoLBMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 3, 0, 0, 1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 2, 4, 1, 5, 0, 7, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{2, 5, 0, 0, 1, 1, 3, 200, 100, 50, 25, 12, 6, 3})
	f.Add([]byte{0, 7, 7, 1, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 0, 0, 1, 2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var topo topology.Topology
		switch next() % 4 {
		case 0:
			topo = topology.MustTorus(1+next()%8, 1+next()%8)
		case 1:
			topo = topology.MustMesh(1+next()%8, 1+next()%8)
		case 2:
			topo = topology.MustHypercube(next() % 7)
		default:
			topo = topology.MustFatTree(2+next()%3, 1+next()%3)
		}
		n := topo.Nodes()
		integral := next()%2 == 0
		b := taskgraph.NewBuilder(n)
		for len(data) >= 3 {
			a, c, x := next()%n, next()%n, next()
			w := float64(1 + x%16)
			if !integral {
				w = float64(1+x)/7 + 0.125
			}
			b.AddEdge(a, c, w)
		}
		g := b.Build("fuzz")
		for _, order := range []Order{OrderFirst, OrderSecond, OrderThird} {
			requireMatchesReference(t, g, topo, order)
		}
	})
}

// referenceSlotRescans runs mapIncremental as it was before the row
// pool — a p×p fest table written at each task's first touch, every
// cycle walking all n task slots and every class — and returns its
// rescan count. The count belongs to the class formulation, which the
// row-per-task reference does not have, so this is its oracle.
func referenceSlotRescans(g *taskgraph.Graph, t topology.Topology, order Order) int64 {
	n := t.Nodes()
	d := topology.NewDists(t)
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)

	scale := make([]float64, n)
	if order == OrderSecond {
		for v := range scale {
			scale[v] = g.WeightedDegree(v)
		}
	}
	byScale := make([]int32, n)
	for v := range byScale {
		byScale[v] = int32(v)
	}
	slices.SortFunc(byScale, func(a, b int32) int {
		return cmp.Compare(math.Float64bits(scale[a]), math.Float64bits(scale[b]))
	})
	slot := make([]int32, n)
	var classW []float64
	var classLive []int32
	for i, v := range byScale {
		if i == 0 || math.Float64bits(scale[v]) != math.Float64bits(scale[byScale[i-1]]) {
			classW = append(classW, scale[v])
			classLive = append(classLive, 0)
		}
		c := len(classW) - 1
		slot[v] = int32(n + c)
		classLive[c]++
	}
	slots := n + len(classW)

	fest := make([]float64, n*n)
	taskFree := make([]bool, n)
	procFree := make([]bool, n)
	fMin := make([]float64, slots)
	fMinAt := make([]int, slots)
	fSum := make([]float64, slots)
	for v := 0; v < n; v++ {
		taskFree[v] = true
		procFree[v] = true
	}
	for c, cw := range classW {
		rescanClass(cw, totalDist, 1, procFree, &fMin[n+c], &fMinAt[n+c], &fSum[n+c])
	}
	var rescans int64

	distRow := make([]float64, n)
	isNbr := make([]bool, n)
	freeProcs := n
	for k := 0; k < n; k++ {
		nFree := float64(freeProcs)
		tk, best := -1, 0.0
		for v, free := range taskFree {
			if !free {
				continue
			}
			sl := slot[v]
			if gain := fSum[sl]/nFree - fMin[sl]; tk < 0 || gain > best {
				tk, best = v, gain
			}
		}
		pk := fMinAt[slot[tk]]
		taskFree[tk] = false
		procFree[pk] = false
		freeProcs--
		if freeProcs == 0 {
			break
		}
		if sl := int(slot[tk]); sl >= n {
			classLive[sl-n]--
		}

		fillScaledRow(&d, distRow, pk, float64(n))
		adj, w := g.Neighbors(tk)
		for _, u := range adj {
			isNbr[u] = true
			if sl := int(slot[u]); sl >= n && taskFree[u] {
				classLive[sl-n]--
			}
		}
		for i, a := range adj {
			u := int(a)
			if !taskFree[u] {
				continue
			}
			c := w[i]
			row := fest[u*n : (u+1)*n]
			if sl := int(slot[u]); sl >= n {
				cw := classW[sl-n]
				for p := 0; p < n; p++ {
					row[p] = cw * totalDist[p]
				}
				slot[u] = int32(u)
			}
			if order == OrderSecond {
				for p := 0; p < n; p++ {
					row[p] += c * (distRow[p] - totalDist[p])
				}
			} else {
				for p := 0; p < n; p++ {
					row[p] += c * distRow[p]
				}
			}
			rescanRow(row, procFree, &fMin[u], &fMinAt[u], &fSum[u])
		}
		for sl := 0; sl < n; sl++ {
			if !taskFree[sl] || isNbr[sl] || int(slot[sl]) != sl {
				continue
			}
			fSum[sl] -= fest[sl*n+pk]
			if fMinAt[sl] == pk {
				rescanRow(fest[sl*n:(sl+1)*n], procFree, &fMin[sl], &fMinAt[sl], &fSum[sl])
				rescans++
			}
		}
		for c, cw := range classW {
			if classLive[c] == 0 {
				continue
			}
			sl := n + c
			fSum[sl] -= float64(cw * totalDist[pk])
			if fMinAt[sl] == pk {
				rescanClass(cw, totalDist, 1, procFree, &fMin[sl], &fMinAt[sl], &fSum[sl])
				rescans++
			}
		}
		for _, u := range adj {
			isNbr[u] = false
		}
	}
	return rescans
}

// peakLiveRows is the most fest rows mapIncremental holds at once for
// this placement order: tasks with a placed neighbor that are not placed
// themselves.
func peakLiveRows(g *taskgraph.Graph, seq []int) int {
	touched := make([]bool, g.NumVertices())
	placed := make([]bool, g.NumVertices())
	live, peak := 0, 0
	for _, tk := range seq {
		placed[tk] = true
		if touched[tk] {
			live--
		}
		adj, _ := g.Neighbors(tk)
		for _, u := range adj {
			if !touched[u] && !placed[u] {
				touched[u] = true
				live++
			}
		}
		peak = max(peak, live)
	}
	return peak
}

// TestTopoLBRescanCount is the clock-free regression gate for the pristine
// classes: on mesh2d:32,32 → torus:32,32 the row-per-task formulation
// rescanned 97 878 rows per call because the processor just taken held
// their minimum (760 of touched tasks, 97 118 of pristine tasks that all
// agreed on that processor); sharing
// them leaves the touched ones plus at most one per live class per cycle.
func TestTopoLBRescanCount(t *testing.T) {
	g, topo := taskgraph.Mesh2D(32, 32, 1024), topology.MustTorus(32, 32)
	if got := TopoLBRescans(g, topo, OrderSecond); got > 2000 {
		t.Fatalf("TopoLB did %d full-row rescans on %s -> %s; want <= 2000", got, g.Name(), topo.Name())
	}
}

// TestTopoLBBytes is the ceiling on what one TopoLB call allocates, fest
// rows included, at second and third order: on mesh2d:32,32 →
// torus:32,32 a p×p table alone was 8 MB, while the rows live at once
// number a few dozen (logged).
func TestTopoLBBytes(t *testing.T) {
	g, topo := taskgraph.Mesh2D(32, 32, 1024), topology.MustTorus(32, 32)
	TopoLB{}.Map(g, topo) // builds the cached distance matrix
	for _, order := range []Order{OrderSecond, OrderThird} {
		s := TopoLB{Order: order}
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := s.Map(g, topo); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		seq := make([]int, topo.Nodes())
		s.mapIncremental(g, topo, order, seq)
		t.Logf("%s on %s -> %s: %d bytes a call, %d fest rows live at most", s.Name(), g.Name(), topo.Name(), got, peakLiveRows(g, seq))
		if got > 2_500_000 {
			t.Errorf("%s allocates %d bytes a call on %s -> %s, want <= 2 500 000", s.Name(), got, g.Name(), topo.Name())
		}
	}
}

// BenchmarkTopoLB times one second-order TopoLB call, mesh onto torus, at
// p = 256, 1024 and 4096, with its bytes per call.
func BenchmarkTopoLB(b *testing.B) {
	for _, side := range []int{16, 32, 64} {
		g, topo := taskgraph.Mesh2D(side, side, 1024), topology.MustTorus(side, side)
		b.Run(fmt.Sprintf("p=%d", side*side), func(b *testing.B) {
			TopoLB{}.Map(g, topo) // builds the cached distance matrix
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (TopoLB{}).Map(g, topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlacementScanAllocs is the allocation ceiling on the two paper
// kernels' placement scans, measured at GOMAXPROCS 1 and 2 (not with
// testing.AllocsPerRun, which pins the width to 1): on mesh2d:16,16 →
// torus:16,16 each allocates its tables (15 and 19 objects) and, at two
// cores, the one fork inside topology.TotalDistances (4–5 more) — nothing
// per placement. A fork put back into either scan costs closures and
// goroutines per cycle: before the scans were loops TopoCentLB allocated
// 525 objects at one core and 2 059 at two, TopoLB 1 299 and 1 303.
func TestPlacementScanAllocs(t *testing.T) {
	g, topo := taskgraph.Mesh2D(16, 16, 1e4), topology.MustTorus(16, 16)
	mallocs := func(s Strategy) uint64 {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := s.Map(g, topo); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range []Strategy{TopoCentLB{}, TopoLB{}} {
		mallocs(s) // builds the cached distance matrix
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			if got := mallocs(s); got > 32 {
				t.Errorf("%s at GOMAXPROCS %d allocates %d objects a call, want <= 32", s.Name(), procs, got)
			}
		}
	}
}
