package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Order selects TopoLB's estimation function (§4.3).
type Order int

const (
	// OrderFirst considers only communication with already-placed tasks.
	OrderFirst Order = 1
	// OrderSecond additionally approximates each unplaced neighbor as
	// uniformly random over all processors. The paper's default: best
	// quality-for-cost at O(p·|Et|) total running time.
	OrderSecond Order = 2
	// OrderThird approximates unplaced neighbors as uniformly random over
	// the still-available processors; O(p³) total running time.
	OrderThird Order = 3
)

// fillScaledRow sets distRow[p] = scale × d(p, pk) for every processor.
// Distances are symmetric, so it reads pk's row, d(pk, p): on the matrix
// that walks one row of cells, not a column.
func fillScaledRow(d *topology.Dists, distRow []float64, pk int, scale float64) {
	for p := range distRow {
		distRow[p] = scale * float64(d.Dist(pk, p))
	}
}

// TopoLB is the paper's mapping heuristic (§4, Algorithm 1). In each of p
// cycles it computes, for every unplaced task, the gain
//
//	gain(t) = avg_{p free} fest(t,p) − min_{p free} fest(t,p)
//
// — how much the task stands to lose if it is deferred and later lands on
// an arbitrary processor — selects the task with maximum gain, and places
// it on the free processor where fest is minimal.
type TopoLB struct {
	// Order selects the estimation function; zero means OrderSecond.
	Order Order
}

// Name implements Strategy.
func (s TopoLB) Name() string {
	switch s.Order {
	case OrderFirst:
		return "TopoLB(order=1)"
	case OrderThird:
		return "TopoLB(order=3)"
	default:
		return "TopoLB"
	}
}

// Map implements Strategy.
func (s TopoLB) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	if err := CheckSizes(g, t); err != nil {
		return nil, err
	}
	order := s.Order
	if order == 0 {
		order = OrderSecond
	}
	if order < OrderFirst || order > OrderThird {
		return nil, fmt.Errorf("core: invalid estimation order %d", order)
	}
	if order == OrderThird {
		return s.mapThirdOrder(g, t)
	}
	m, _ := s.mapIncremental(g, t, order)
	return m, nil
}

// mapIncremental implements first- and second-order TopoLB with an
// incrementally maintained p×p fest table plus per-task minimum and sum
// over available processors (§4.4). Total time O(p·|Et| + p²), dominated
// by table updates; memory p² float64.
//
// The table stores n·fest rather than fest: the second-order expected
// distance Σ_q d(p,q) / n becomes the integer-valued total distance, so
// with integral edge weights every table entry stays exactly
// representable and the incremental updates match full recomputation
// bit for bit (see the brute-force cross-check test). Scaling by the
// constant n changes neither argmin nor the gain ordering.
//
// Pristine classes. A free task none of whose neighbors is placed yet
// has the row fl(W_v·totalDist[p]) (all zeros at first order), which
// depends on the task only through W_v; and a cycle that does not touch
// it does the same two things to every such row — subtract the entry of
// the processor just taken, rescan if that processor held the minimum.
// Tasks with equal Float64bits(W_v) therefore have bit-identical rows
// and bit-identical (min, argmin, sum) for as long as they stay
// untouched, so one class record stands for all of them: slot[v] is
// n+class while v is pristine and v afterwards, and fMin/fMinAt/fSum are
// indexed by slot. A class row is never stored; its entries are
// recomputed as float64(W·totalDist[p]), the explicit conversion
// rounding the product exactly as the store into a materialized row
// does (without it a platform may fuse the multiply into the
// accumulation). A task leaves its class when a neighbor is placed: its
// row is written for the first time and from there the update runs as
// it always has. The paper's O(p·|Et|) argument — a cycle changes only
// the rows of the placed task's neighbors — then holds for the rescans
// too, not only for the row updates.
//
// The second result is a work counter: how many times a slot that lost
// only a processor had to be rescanned in full because that processor
// held its minimum — the work the classes share, pinned by
// TestTopoLBRescanCount.
func (s TopoLB) mapIncremental(g *taskgraph.Graph, t topology.Topology, order Order) (Mapping, int64) {
	n := t.Nodes()
	d := topology.NewDists(t)
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}

	// totalDist[p] = Σ_q d(p,q) = n × (second-order expected distance).
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)

	// Group the tasks into pristine classes by the bits of their row
	// scale: W_v at second order, 0 (one class, all-zero rows) at first.
	// Sorted rather than hashed: no map on the request path.
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
	slot := make([]int32, n) // n+class while pristine, v once touched
	var classW []float64     // per class: the shared row scale
	var classLive []int32    // per class: members still pristine and free
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

	fest := make([]float64, n*n) // row = task, col = processor; scaled by n; written at first touch
	taskFree := make([]bool, n)
	procFree := make([]bool, n)
	fMin := make([]float64, slots) // min fest over free processors
	fMinAt := make([]int, slots)   // argmin processor
	fSum := make([]float64, slots) // Σ fest over free processors
	for v := 0; v < n; v++ {
		taskFree[v] = true
		procFree[v] = true
	}
	for c, cw := range classW {
		rescanClass(cw, totalDist, procFree, &fMin[n+c], &fMinAt[n+c], &fSum[n+c])
	}
	var rescans int64

	distRow := make([]float64, n) // n × d(p, pk)
	isNbr := make([]bool, n)      // scratch, cleared after each cycle
	freeProcs := n
	for k := 0; k < n; k++ {
		// Select the task with maximum gain = FAvg − FMin; ties go to the
		// lowest task id.
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
		// Select the cheapest free processor for tk.
		pk := fMinAt[slot[tk]]
		m[tk] = pk
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
		// Neighbors of tk gain an exact term (and, at second order, lose
		// the expected-distance term for this edge). A pristine neighbor
		// leaves its class here and gets its row written first.
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
		// Every other slot — a touched free task, or a class that still
		// has members — only loses processor pk from its free set.
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
				rescanClass(cw, totalDist, procFree, &fMin[sl], &fMinAt[sl], &fSum[sl])
				rescans++
			}
		}
		for _, u := range adj {
			isNbr[u] = false
		}
	}
	return m, rescans
}

// rescanRow recomputes the minimum, argmin, and sum of a fest row over the
// free processors.
func rescanRow(row []float64, procFree []bool, minVal *float64, minAt *int, sum *float64) {
	mv, ma, s := 0.0, -1, 0.0
	for p, free := range procFree {
		if !free {
			continue
		}
		v := row[p]
		s += v
		if ma < 0 || v < mv {
			mv, ma = v, p
		}
	}
	*minVal, *minAt, *sum = mv, ma, s
}

// rescanClass is rescanRow for a pristine class: the row is not stored,
// its entries are float64(cw·totalDist[p]) — rounded by the conversion
// exactly as a stored entry is, so the two agree to the last bit.
func rescanClass(cw float64, totalDist []float64, procFree []bool, minVal *float64, minAt *int, sum *float64) {
	mv, ma, s := 0.0, -1, 0.0
	for p, free := range procFree {
		if !free {
			continue
		}
		v := float64(cw * totalDist[p])
		s += v
		if ma < 0 || v < mv {
			mv, ma = v, p
		}
	}
	*minVal, *minAt, *sum = mv, ma, s
}

// mapThirdOrder implements third-order TopoLB: the expected distance for an
// unplaced neighbor is taken over the *free* processors, so every fest
// value changes each cycle and the full table is rescanned — O(p²) per
// cycle, O(p³) total (§4.4).
func (s TopoLB) mapThirdOrder(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
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
				f := row[p] + unplacedW[v]*sumFree[p]*inv
				sum += f
				if ma < 0 || f < mv {
					mv, ma = f, p
				}
			}
			if gain := sum*inv - mv; tk < 0 || gain > best {
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
				row[p] += c * distRow[p]
			}
		}
	}
	return m, nil
}
