package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
	// the still-available processors. Every estimate moves each cycle, so
	// each cycle rescans every live row and class: O(p³) at worst, when
	// every free task is touched.
	OrderThird Order = 3
)

// fillScaledRow sets distRow[p] = scale × d(p, pk) for every processor.
// Distances are symmetric, so it reads pk's row, d(pk, p): on the matrix
// that walks one row of cells, not a column, and on labels it hoists pk's.
func fillScaledRow(d *topology.Dists, distRow []float64, pk int, scale float64) {
	if l := d.Labels(); l != nil {
		lk := l[pk]
		for p, x := range l[:len(distRow)] {
			distRow[p] = scale * float64(bits.OnesCount64(lk^x))
		}
		return
	}
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
	m, _ := s.mapIncremental(g, t, order, nil)
	return m, nil
}

// mapIncremental implements TopoLB with an incrementally maintained fest
// table plus per-task minimum and sum over available processors (§4.4).
// At orders 1–2, total time O(p·|Et| + p²), dominated by table updates;
// memory p·(peak live rows) float64, not p².
//
// Orders 1–2 store n·fest rather than fest: the second-order expected
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
// Live rows. A row is read only between its task's first touch and its
// placement, so rows live in a pool: a task takes one where it leaves its
// class, and gives it back when it is placed. The pool doubles when it is
// full, so it holds about twice the most rows ever live at once — the
// frontier between placed and pristine tasks, tens of rows on a 1024-task
// mesh, not p. The touched free tasks are kept on a live list, and each
// cycle walks that list and the live classes, not all n slots.
// Selection is the scan in task order that replaces its pick only on a
// strictly larger gain, over the live list plus, per live class, its
// lowest-id free member: the class's other members share that member's
// gain bit for bit, so the scan would never take them. gainArgmax gives
// that scan's answer whatever order the candidates come in. Each row
// sees the same operations in the same order as a p×p table's row, so
// the placements are those of referenceRowTopoLB in the tests.
//
// Third order: fest(v,p) = exact_v[p] + float64(w_v·freeDist[p]·inv),
// with w_v (scale[v]) v's weight to unplaced neighbors and inv =
// 1/freeProcs. A row stores the exact part, unscaled; a pristine task's
// is zero, so classes keyed by W_v still hold. freeDist and inv move
// every entry each cycle, so maintenance rescans every live row and
// class — not every free task, as referenceThirdOrder in the tests does.
//
// The second result is a work counter: how many times a slot that lost
// only a processor had to be rescanned in full because that processor
// held its minimum — the work the classes share, pinned by
// TestTopoLBRescanCount. A non-nil seq (length n) receives the task
// placed in each cycle, for the tests' oracles.
func (s TopoLB) mapIncremental(g *taskgraph.Graph, t topology.Topology, order Order, seq []int) (Mapping, int64) {
	n := t.Nodes()
	d := topology.NewDists(t)
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}

	// totalDist[p] = Σ_q d(p,q) = n × (second-order expected distance).
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)
	// freeDist[p] = Σ_{q free} d(p,q) at third order: freeProcs × its
	// expected distance.
	third := order == OrderThird
	var freeDist []float64
	rowScale, inv0 := float64(n), 1.0 // distRow's scale; inv of the first class scans
	if third {
		freeDist, rowScale, inv0 = slices.Clone(totalDist), 1, 1/float64(n)
	}

	// Group the tasks into pristine classes by the bits of their row
	// scale: W_v at second and third order, 0 (one class, all-zero rows)
	// at first. Sorted rather than hashed: no map on the request path.
	// Ties go by id, so each class's members run in id order from its
	// cursor. At third order a touched task's scale[v] then drops to its
	// weight to unplaced neighbours.
	scale := make([]float64, n)
	if order != OrderFirst {
		for v := range scale {
			scale[v] = g.WeightedDegree(v)
		}
	}
	byScale := make([]int32, n)
	for v := range byScale {
		byScale[v] = int32(v)
	}
	slices.SortFunc(byScale, func(a, b int32) int {
		return cmp.Or(cmp.Compare(math.Float64bits(scale[a]), math.Float64bits(scale[b])), cmp.Compare(a, b))
	})
	newClass := func(i int) bool {
		return i == 0 || math.Float64bits(scale[byScale[i]]) != math.Float64bits(scale[byScale[i-1]])
	}
	classes := 0
	for i := range byScale {
		if newClass(i) {
			classes++
		}
	}
	slot := make([]int32, n)                 // n+class while pristine, v once touched
	classW := make([]float64, classes)       // per class: the shared row scale
	classLive := make([]int32, classes)      // per class: members still pristine and free
	classCur := make([]int32, classes)       // per class: byScale index at or before its lowest-id free pristine member
	liveClasses := make([]int32, 0, classes) // classes with classLive > 0, in class order
	for i, v := range byScale {
		if newClass(i) {
			c := len(liveClasses)
			classW[c], classCur[c] = scale[v], int32(i)
			liveClasses = append(liveClasses, int32(c))
		}
		c := len(liveClasses) - 1
		slot[v] = int32(n + c)
		classLive[c]++
	}
	slots := n + classes

	var pool []float64              // live fest rows, n entries each; row = task, col = processor; scaled by rowScale
	rowOf := make([]int32, n)       // a touched free task's row in pool
	freeRows := make([]int32, 0, n) // rows given back by placed tasks
	rowsUsed := 0                   // rows ever handed out
	live := make([]int32, 0, n)     // touched free tasks
	livePos := make([]int32, n)     // a touched free task's index in live
	taskFree := make([]bool, n)
	procFree := make([]bool, n)
	fMin := make([]float64, slots) // min fest over free processors
	fMinAt := make([]int, slots)   // argmin processor
	fSum := make([]float64, slots) // Σ fest over free processors
	for v := 0; v < n; v++ {
		taskFree[v] = true
		procFree[v] = true
	}
	for c, cw := range classW { // freeDist is still totalDist
		rescanClass(cw, totalDist, inv0, procFree, &fMin[n+c], &fMinAt[n+c], &fSum[n+c])
	}
	var rescans int64

	distRow := make([]float64, n) // rowScale × d(p, pk)
	isNbr := make([]bool, n)      // scratch, cleared after each cycle
	freeProcs := n
	for k := 0; k < n; k++ {
		// Select the task with maximum gain = FAvg − FMin; ties go to the
		// lowest task id.
		nFree := float64(freeProcs)
		inv := 1 / nFree
		sel := gainArgmax{tk: -1, first: n}
		for _, v := range live {
			gain := fSum[v]/nFree - fMin[v]
			if third {
				gain = float64(fSum[v]*inv) - fMin[v]
			}
			sel.offer(int(v), gain)
		}
		for _, c := range liveClasses {
			i := classCur[c]
			for int(slot[byScale[i]]) != n+int(c) || !taskFree[byScale[i]] {
				i++
			}
			classCur[c] = i
			sl := n + int(c)
			gain := fSum[sl]/nFree - fMin[sl]
			if third {
				gain = float64(fSum[sl]*inv) - fMin[sl]
			}
			sel.offer(int(byScale[i]), gain)
		}
		tk := sel.winner()
		if seq != nil {
			seq[k] = tk
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
		} else {
			freeRows = append(freeRows, rowOf[tk])
			last := live[len(live)-1]
			live[livePos[tk]] = last
			livePos[last] = livePos[tk]
			live = live[:len(live)-1]
		}

		fillScaledRow(&d, distRow, pk, rowScale)
		for p := range freeDist {
			freeDist[p] -= distRow[p]
		}
		// Neighbors of tk gain an exact term (and, at second order, lose
		// the expected-distance term for this edge; at third, the edge's
		// weight leaves their scale). A pristine neighbor leaves its class
		// here, takes a row from the pool and gets it written first.
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
			if sl := int(slot[u]); sl >= n {
				if len(freeRows) == 0 {
					if rowsUsed*n == len(pool) {
						grown := make([]float64, max(2*len(pool), min(n, 16)*n))
						copy(grown, pool)
						pool = grown
					}
					freeRows = append(freeRows, int32(rowsUsed))
					rowsUsed++
				}
				rowOf[u] = freeRows[len(freeRows)-1]
				freeRows = freeRows[:len(freeRows)-1]
				livePos[u] = int32(len(live))
				live = append(live, int32(u))
				row := pool[int(rowOf[u])*n:][:n]
				if third {
					clear(row)
				} else {
					cw := classW[sl-n]
					for p := 0; p < n; p++ {
						row[p] = cw * totalDist[p]
					}
				}
				slot[u] = int32(u)
			}
			row := pool[int(rowOf[u])*n:][:n]
			if order == OrderSecond {
				for p := 0; p < n; p++ {
					row[p] += float64(c * (distRow[p] - totalDist[p]))
				}
			} else {
				for p := 0; p < n; p++ {
					row[p] += float64(c * distRow[p])
				}
			}
			if third {
				scale[u] -= c
			} else {
				rescanRow(row, procFree, &fMin[u], &fMinAt[u], &fSum[u])
			}
		}
		// Every other live slot — a touched free task, or a class that
		// still has members — only loses processor pk from its free set;
		// at third order every live slot is rescanned.
		inv = 1 / float64(freeProcs)
		for _, v := range live {
			row := pool[int(rowOf[v])*n:][:n]
			if third {
				rescanThird(row, scale[v], freeDist, inv, procFree, &fMin[v], &fMinAt[v], &fSum[v])
				continue
			}
			if isNbr[v] {
				continue
			}
			fSum[v] -= row[pk]
			if fMinAt[v] == pk {
				rescanRow(row, procFree, &fMin[v], &fMinAt[v], &fSum[v])
				rescans++
			}
		}
		kept := liveClasses[:0]
		for _, c := range liveClasses {
			if classLive[c] == 0 {
				continue
			}
			kept = append(kept, c)
			cw, sl := classW[c], n+int(c)
			if third {
				rescanClass(cw, freeDist, inv, procFree, &fMin[sl], &fMinAt[sl], &fSum[sl])
				continue
			}
			fSum[sl] -= float64(cw * totalDist[pk])
			if fMinAt[sl] == pk {
				rescanClass(cw, totalDist, 1, procFree, &fMin[sl], &fMinAt[sl], &fSum[sl])
				rescans++
			}
		}
		liveClasses = kept
		for _, u := range adj {
			isNbr[u] = false
		}
	}
	return m, rescans
}

// gainArgmax is TopoLB's task selection over candidates offered in any
// order. It answers as a scan in task-id order would that keeps the first
// task and replaces it only on a strictly larger gain: the lowest id among
// the largest gains — unless the lowest-id candidate's gain is NaN, which
// such a scan never replaces.
type gainArgmax struct {
	tk       int // lowest id among the largest non-NaN gains; -1 if none yet
	best     float64
	first    int // lowest id offered
	firstNaN bool
}

func (a *gainArgmax) offer(v int, gain float64) {
	if v < a.first {
		a.first, a.firstNaN = v, math.IsNaN(gain)
	}
	if !math.IsNaN(gain) && (a.tk < 0 || gain > a.best || (gain >= a.best && v < a.tk)) {
		a.tk, a.best = v, gain
	}
}

func (a *gainArgmax) winner() int {
	if a.firstNaN || a.tk < 0 {
		return a.first
	}
	return a.tk
}

// rescanRow recomputes the minimum, argmin, and sum of a fest row over the
// free processors.
//
// Kept out of line, as rescanClass is: inlined into mapIncremental's
// crowded loop, the scan spilled its index and argmin on every entry, and
// second-order TopoLB ran 10–15 % slower (DESIGN §6).
//
//go:noinline
func rescanRow(row []float64, procFree []bool, minVal *float64, minAt *int, sum *float64) {
	mv, ma, s := 0.0, -1, 0.0
	row = row[:len(procFree)]
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
// its entries are float64(cw·dist[p]·inv) — rounded by the conversion
// exactly as a stored entry is, so the two agree to the last bit. Orders
// 1–2 pass totalDist and inv = 1, which leaves the product as it is;
// third order passes freeDist and 1/freeProcs, and its entries lack the
// table's addition of a zero exact part, which turns only a −0 into +0:
// no sum, minimum or gain here tells the two apart.
//
//go:noinline
func rescanClass(cw float64, dist []float64, inv float64, procFree []bool, minVal *float64, minAt *int, sum *float64) {
	mv, ma, s := 0.0, -1, 0.0
	dist = dist[:len(procFree)]
	for p, free := range procFree {
		if !free {
			continue
		}
		v := float64(cw * dist[p] * inv)
		s += v
		if ma < 0 || v < mv {
			mv, ma = v, p
		}
	}
	*minVal, *minAt, *sum = mv, ma, s
}

// rescanThird is rescanRow at third order: entry p is row[p] +
// float64(w·freeDist[p]·inv), the stored exact part plus w times the mean
// distance to a free processor.
func rescanThird(row []float64, w float64, freeDist []float64, inv float64, procFree []bool, minVal *float64, minAt *int, sum *float64) {
	mv, ma, s := 0.0, -1, 0.0
	row, freeDist = row[:len(procFree)], freeDist[:len(procFree)]
	for p, free := range procFree {
		if !free {
			continue
		}
		v := row[p] + float64(w*freeDist[p]*inv)
		s += v
		if ma < 0 || v < mv {
			mv, ma = v, p
		}
	}
	*minVal, *minAt, *sum = mv, ma, s
}
