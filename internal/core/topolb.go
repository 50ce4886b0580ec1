package core

import (
	"fmt"

	"repro/internal/parallel"
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

// Grain sizes for the parallel kernels: the fixed chunk length handed to
// package parallel, chosen by per-index cost so a chunk amortizes one
// goroutine dispatch. Fixed grains (rather than n/workers) keep
// floating-point chunk sums identical for every GOMAXPROCS; see the
// determinism contract in DESIGN.md.
const (
	gainScanGrain   = 256  // O(1) per index: read two precomputed slices
	rowScanGrain    = 16   // O(p) per index: full fest-row work
	cellGrain       = 4096 // O(1) per index: one table cell
	thirdOrderGrain = 8    // O(p) per index, heavier constant
	hopBytesGrain   = 64   // O(deg) per index: one task's edges
)

// dists resolves pairwise processor distances through the globally cached
// distance matrix when the machine is small enough to materialize,
// falling back to the Topology's virtual Distance otherwise.
type dists struct {
	dm *topology.DistanceMatrix
	t  topology.Topology
}

func newDists(t topology.Topology) dists {
	return dists{dm: topology.CachedDistances(t), t: t}
}

// dist returns the hop distance between processors a and b.
func (d dists) dist(a, b int) int {
	if d.dm != nil {
		return int(d.dm.Lookup(a, b))
	}
	//lint:ignore hotalloc the fallback for machines over the matrix cap: the topology answers from its own arithmetic or lazily built rows
	return d.t.Distance(a, b)
}

// fillScaledRow sets distRow[p] = scale × d(p, pk) for every processor,
// in parallel. Distances are symmetric, so the matrix row for pk serves
// as the column.
func (d dists) fillScaledRow(distRow []float64, pk int, scale float64) {
	n := len(distRow)
	if d.dm != nil {
		row := d.dm.Row(pk)
		parallel.For(n, cellGrain, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				distRow[p] = scale * float64(row[p])
			}
		})
		return
	}
	parallel.For(n, cellGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			distRow[p] = scale * float64(d.t.Distance(p, pk))
		}
	})
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
	if err := checkSizes(g, t); err != nil {
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
	return s.mapIncremental(g, t, order)
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
// Parallel structure: the per-cycle gain scan is an index-ordered
// arg-max reduction; each neighbor's fest-row update (and each
// non-neighbor's free-set shrink) touches per-task state only, so rows
// fan out across workers. Every reduction tie-breaks on the lowest
// index exactly like the serial loops, keeping mappings byte-identical
// for any GOMAXPROCS.
func (s TopoLB) mapIncremental(g *taskgraph.Graph, t topology.Topology, order Order) (Mapping, error) {
	n := t.Nodes()
	d := newDists(t)
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}

	// totalDist[p] = Σ_q d(p,q) = n × (second-order expected distance).
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)

	fest := make([]float64, n*n) // row = task, col = processor; scaled by n
	unplacedW := make([]float64, n)
	taskFree := make([]bool, n)
	procFree := make([]bool, n)
	fMin := make([]float64, n) // min fest over free processors
	fMinAt := make([]int, n)   // argmin processor
	fSum := make([]float64, n) // Σ fest over free processors
	for v := 0; v < n; v++ {
		taskFree[v] = true
		procFree[v] = true
		unplacedW[v] = g.WeightedDegree(v)
	}
	parallel.For(n, rowScanGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := fest[v*n : (v+1)*n]
			if order == OrderSecond {
				for p := 0; p < n; p++ {
					row[p] = unplacedW[v] * totalDist[p]
				}
			}
			rescanRow(row, procFree, &fMin[v], &fMinAt[v], &fSum[v])
		}
	})

	distRow := make([]float64, n) // n × d(p, pk)
	isNbr := make([]bool, n)      // scratch, cleared after each cycle
	freeProcs := n
	for k := 0; k < n; k++ {
		// Select the task with maximum gain = FAvg − FMin.
		nFree := float64(freeProcs)
		tk, _ := parallel.ArgMax(n, gainScanGrain, func(v int) (float64, bool) {
			return fSum[v]/nFree - fMin[v], taskFree[v]
		})
		// Select the cheapest free processor for tk.
		pk := fMinAt[tk]
		m[tk] = pk
		taskFree[tk] = false
		procFree[pk] = false
		freeProcs--
		if freeProcs == 0 {
			break
		}

		d.fillScaledRow(distRow, pk, float64(n))
		// Neighbors of tk gain an exact term (and, at second order, lose
		// the expected-distance term for this edge).
		adj, w := g.Neighbors(tk)
		for _, u := range adj {
			isNbr[u] = true
		}
		parallel.For(len(adj), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := int(adj[i])
				if !taskFree[u] {
					continue
				}
				c := w[i]
				unplacedW[u] -= c
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
		})
		// Other unplaced tasks only lose processor pk from their free set.
		parallel.For(n, gainScanGrain, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if !taskFree[v] || isNbr[v] {
					continue
				}
				fSum[v] -= fest[v*n+pk]
				if fMinAt[v] == pk {
					rescanRow(fest[v*n:(v+1)*n], procFree, &fMin[v], &fMinAt[v], &fSum[v])
				}
			}
		})
		for _, u := range adj {
			isNbr[u] = false
		}
	}
	return m, nil
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

// thirdCand is a third-order selection candidate: task tk placed on
// processor pk with the given gain, or tk < 0 for "none yet".
type thirdCand struct {
	tk, pk int
	gain   float64
}

// mapThirdOrder implements third-order TopoLB: the expected distance for an
// unplaced neighbor is taken over the *free* processors, so every fest
// value changes each cycle and the full table is rescanned — O(p²) per
// cycle, O(p³) total (§4.4). The per-cycle scan fans the per-task row
// evaluations out across workers and merges candidates in task order with
// a strictly-greater replacement rule, matching the serial scan exactly.
func (s TopoLB) mapThirdOrder(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	n := t.Nodes()
	d := newDists(t)
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
		best := parallel.Reduce(n, thirdOrderGrain, func(lo, hi int) thirdCand {
			best := thirdCand{tk: -1}
			for v := lo; v < hi; v++ {
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
				gain := sum*inv - mv
				if best.tk < 0 || gain > best.gain {
					best = thirdCand{tk: v, pk: ma, gain: gain}
				}
			}
			return best
		}, func(acc, next thirdCand) thirdCand {
			if acc.tk < 0 || (next.tk >= 0 && next.gain > acc.gain) {
				return next
			}
			return acc
		})
		tk, pk := best.tk, best.pk
		m[tk] = pk
		taskFree[tk] = false
		procFree[pk] = false
		freeProcs--
		if freeProcs == 0 {
			break
		}
		d.fillScaledRow(distRow, pk, 1)
		parallel.For(n, cellGrain, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				sumFree[p] -= distRow[p]
			}
		})
		adj, w := g.Neighbors(tk)
		parallel.For(len(adj), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				u := int(adj[i])
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
		})
	}
	return m, nil
}
