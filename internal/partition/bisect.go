package partition

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
)

// bisectForkMin is the smallest graph whose bisection tries run side by
// side: below it a try costs less than starting the workers.
const bisectForkMin = 32

// bisect splits m into two sides, side 0 targeting leftFrac of the total
// vertex weight. It runs greedy graph-growing from several seeds, refines
// each candidate with FM, and returns the side assignment with the
// smallest edge cut among balanced candidates. The result is
// ar.try0.best and ar.byWgt is left holding m's vertices in ascending
// (Vwgt, id) order; both are valid until the next bisect on the arena.
//
// A try's only random draw is its growRegion seed, so the seeds are drawn
// up front, in try order, and the tries themselves are independent: on a
// graph of at least bisectForkMin vertices they run on up to tries
// workers, each in its own trial scratch, taking the next try as it
// finishes one. A worker's tries ascend, so it keeps the first best of
// them; the best of the workers', the lower try on a tie, is the first
// best of all tries — the serial loop's pick, since better is a strict
// weak order.
func bisect(m *CGraph, leftFrac float64, rng *rand.Rand, tries int, ar *arena) []int8 {
	byWgt := ar.byWgt[:m.N]
	for i := range byWgt {
		byWgt[i] = int32(i)
	}
	if m.N == 1 {
		best := ar.try0.best[:1]
		best[0] = 0
		return best
	}
	sortByWeight(m, byWgt)
	total := m.totalVwgt()
	target := total * leftFrac
	seeds := ar.seeds[:tries]
	for t := range seeds {
		seeds[t] = int32(rng.Intn(m.N))
	}
	w := 1
	if m.N >= bisectForkMin {
		w = min(runtime.GOMAXPROCS(0), tries)
	}
	ar.nextTry.Store(0)
	if w <= 1 {
		ar.try0.run(m, seeds, target, total, &ar.nextTry)
	} else {
		workers := ar.forWorkers(w)
		parallel.For(w, 1, func(i, _ int) {
			workers[i].run(m, seeds, target, total, &ar.nextTry)
		})
		win := workers[0]
		for _, tr := range workers[1:] {
			if tr.try >= 0 && (win.try < 0 || better(tr.cut, tr.bal, win.cut, win.bal) ||
				!better(win.cut, win.bal, tr.cut, tr.bal) && tr.try < win.try) {
				win = tr
			}
		}
		if win != &ar.try0 {
			copy(ar.try0.best[:m.N], win.best[:m.N])
		}
	}
	if ar.observeFM != nil {
		// Each try's FM input again, in try order, whichever worker ran it.
		for _, seed := range seeds {
			ar.observeFM(m, growRegion(m, target, seed, &ar.try0), target, total)
		}
	}
	return ar.try0.best[:m.N]
}

// run is bisect's loop over tries on one worker's scratch: it takes the
// next untried index from next until none is left, grows from that try's
// seed and refines, and keeps the first best side it finds in tr.best,
// with its cut, balance and try index (-1: it ran none).
func (tr *trial) run(m *CGraph, seeds []int32, target, total float64, next *atomic.Int32) {
	best := tr.best[:m.N]
	tr.try = -1
	for {
		t := int(next.Add(1)) - 1
		if t >= len(seeds) {
			return
		}
		side := growRegion(m, target, seeds[t], tr)
		fmRefineBisection(m, side, target, total, tr)
		cut := bisectionCut(m, side)
		bal := bisectionImbalance(m, side, target, total)
		if tr.try < 0 || better(cut, bal, tr.cut, tr.bal) {
			copy(best, side)
			tr.cut, tr.bal, tr.try = cut, bal, t
		}
	}
}

// sortByWeight sorts vertices of m into ascending (Vwgt, id) order.
func sortByWeight(m *CGraph, vs []int32) {
	slices.SortFunc(vs, func(a, b int32) int {
		if c := cmp.Compare(m.Vwgt[a], m.Vwgt[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// better prefers lower imbalance when either candidate is badly unbalanced
// (> 15 %), else lower cut.
func better(cut, bal, bestCut, bestBal float64) bool {
	const tol = 1.15
	switch {
	case bal <= tol && bestBal > tol:
		return true
	case bal > tol && bestBal <= tol:
		return false
	case bal > tol && bestBal > tol:
		return bal < bestBal
	default:
		return cut < bestCut
	}
}

// growRegion grows side 0 from the seed vertex by repeatedly absorbing the
// unassigned vertex with the strongest connection to the region until the
// target weight is reached. Both sides are guaranteed non-empty.
func growRegion(m *CGraph, target float64, seed int32, tr *trial) []int8 {
	side := tr.side[:m.N]
	for i := range side {
		side[i] = 1
	}
	conn := tr.conn[:m.N] // connection of each side-1 vertex to side 0
	clear(conn)
	side[seed] = 0
	weight := m.Vwgt[seed]
	adj, w := m.neighbors(seed)
	for i, u := range adj {
		conn[u] += w[i]
	}
	inSideOne := m.N - 1
	for weight < target && inSideOne > 1 {
		// Pick the unassigned vertex with max connection; fall back to any.
		best := int32(-1)
		bestConn := -1.0
		for v := int32(0); v < int32(m.N); v++ {
			if side[v] == 1 && conn[v] > bestConn {
				best, bestConn = v, conn[v]
			}
		}
		if best < 0 {
			break
		}
		// Stop if overshooting hurts more than stopping short.
		if weight+m.Vwgt[best] > target && weight+m.Vwgt[best]-target > target-weight {
			break
		}
		side[best] = 0
		weight += m.Vwgt[best]
		inSideOne--
		adj, w := m.neighbors(best)
		for i, u := range adj {
			if side[u] == 1 {
				conn[u] += w[i]
			}
		}
	}
	return side
}

func bisectionCut(m *CGraph, side []int8) float64 {
	cut := 0.0
	for v := int32(0); v < int32(m.N); v++ {
		adj, w := m.neighbors(v)
		for i, u := range adj {
			if side[v] != side[u] {
				cut += w[i]
			}
		}
	}
	return cut / 2
}

func bisectionImbalance(m *CGraph, side []int8, target, total float64) float64 {
	w0 := 0.0
	for v, s := range side {
		if s == 0 {
			w0 += m.Vwgt[v]
		}
	}
	b0 := ratio(w0, target)
	b1 := ratio(total-w0, total-target)
	if b0 > b1 {
		return b0
	}
	return b1
}

func ratio(x, y float64) float64 {
	if y <= 0 {
		if x <= 0 {
			return 1
		}
		return x
	}
	return x / y
}

// fmMove is one tentative move of an FM pass: the vertex and the gain it
// moved with.
type fmMove struct {
	v    int32
	gain float64
}

// fmMaxPasses bounds the FM passes of one refinement.
const fmMaxPasses = 6

// fmRefineBisection runs Fiduccia–Mattheyses passes on a bisection: each
// pass tentatively moves every vertex once in best-gain order, then keeps
// the best prefix seen. Balance may drift within 15 % of the targets and
// neither side may empty. tr.byWgt must hold m's vertices in ascending
// (Vwgt, id) order.
func fmRefineBisection(m *CGraph, side []int8, target, total float64, tr *trial) {
	f := newFM(m, side, target, total, tr)
	for pass := 0; pass < fmMaxPasses; pass++ {
		if _, bestCum := f.pass(); bestCum <= 0 {
			break
		}
	}
	tr.fmNodes += f.nodes
}

// fm is the state of one fmRefineBisection call. Its slices are the
// trial's, cut to the graph.
//
// The next vertex to move is the first, in (gain descending, id
// ascending) order, of the unlocked vertices whose move keeps the
// receiving side within its limit. Each side keeps a tournament tree for
// that: the side's vertices are its leaves in ascending (Vwgt, id) order
// and every node holds the first vertex of its subtree (-1: none left).
// A vertex fits unless weight[to]+Vwgt[v] > limit[to], and a float sum is
// monotone in either operand, so the vertices that fit are a prefix of
// the leaves: a binary search evaluating that very expression finds its
// end (an algebraically equal test such as Vwgt[v] <= limit-weight rounds
// differently and admits different vertices), and one range query over
// the prefix finds the vertex. A move locks its vertex, which only ever
// empties a leaf, and changes its neighbours' gains, which re-plays their
// leaves' matches upward until a node keeps its winner. Roll-back moves
// vertices between sides, so the trees are rebuilt every pass.
type fm struct {
	m       *CGraph
	side    []int8
	byWgt   []int32
	gain    []float64
	locked  []bool
	history []fmMove
	count   [2]int
	weight  [2]float64
	limit   [2]float64
	// leaf[s] lists side s's vertices at the start of the pass, in byWgt
	// order; node[s][len(leaf[s])+i] is leaf i, node[s][i] the winner of
	// node[s][2i] and node[s][2i+1], node[s][0] unused. leafAt[v] is v's
	// index in its side's leaves.
	leaf, node [2][]int32
	leafAt     []int32
	leafBuf    []int32
	nodeBuf    []int32
	nodes      int64 // tree nodes read or written by pick and replay
}

func newFM(m *CGraph, side []int8, target, total float64, tr *trial) fm {
	n := m.N
	f := fm{
		m: m, side: side, byWgt: tr.byWgt[:n],
		gain: tr.gain[:n], locked: tr.locked[:n], history: tr.history[:0],
		leafAt: tr.leafAt[:n], leafBuf: tr.leaf[:n], nodeBuf: tr.node[:2*n],
		limit: [2]float64{target * 1.15, (total - target) * 1.15},
	}
	for v, s := range side {
		f.count[s]++
		f.weight[s] += m.Vwgt[v]
	}
	return f
}

// first returns whichever of a and b comes first in (gain descending, id
// ascending) order; -1 stands for no vertex.
func first(gain []float64, a, b int32) int32 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case gain[a] > gain[b]:
		return a
	case gain[b] > gain[a]:
		return b
	case a < b:
		return a
	}
	return b
}

// pass runs one FM pass and returns every move it tried, kept or rolled
// back, and the cut reduction of the prefix it kept.
func (f *fm) pass() ([]fmMove, float64) {
	m, side, gain, locked := f.m, f.side, f.gain, f.locked
	for v := int32(0); v < int32(m.N); v++ {
		locked[v] = false
		ext, int_ := 0.0, 0.0
		adj, w := m.neighbors(v)
		for i, u := range adj {
			if side[u] == side[v] {
				int_ += w[i]
			} else {
				ext += w[i]
			}
		}
		gain[v] = ext - int_
	}
	f.buildTrees()
	history := f.history[:0]
	cum, bestCum, bestIdx := 0.0, 0.0, -1
	for {
		best := first(gain, f.pick(0), f.pick(1))
		if best < 0 {
			break
		}
		bestGain := gain[best]
		from, to := side[best], 1-side[best]
		f.node[from][len(f.leaf[from])+int(f.leafAt[best])] = -1
		f.replay(from, best)
		side[best] = to
		locked[best] = true
		f.count[from]--
		f.count[to]++
		f.weight[from] -= m.Vwgt[best]
		f.weight[to] += m.Vwgt[best]
		cum += bestGain
		history = append(history, fmMove{best, bestGain})
		if cum > bestCum {
			bestCum, bestIdx = cum, len(history)-1
		}
		adj, w := m.neighbors(best)
		for i, u := range adj {
			if locked[u] {
				continue
			}
			if side[u] == to {
				gain[u] -= 2 * w[i]
			} else {
				gain[u] += 2 * w[i]
			}
			f.replay(side[u], u)
		}
	}
	// Roll back moves after the best prefix.
	for i := len(history) - 1; i > bestIdx; i-- {
		v := history[i].v
		from, to := side[v], 1-side[v]
		side[v] = to
		f.count[from]--
		f.count[to]++
		f.weight[from] -= m.Vwgt[v]
		f.weight[to] += m.Vwgt[v]
	}
	return history, bestCum
}

// buildTrees deals the vertices, all unlocked, to their sides' leaves in
// byWgt order and plays every match.
func (f *fm) buildTrees() {
	n0 := f.count[0]
	f.leaf = [2][]int32{f.leafBuf[:0:n0], f.leafBuf[n0:n0]}
	for _, v := range f.byWgt {
		s := f.side[v]
		f.leafAt[v] = int32(len(f.leaf[s]))
		f.leaf[s] = append(f.leaf[s], v)
	}
	f.node = [2][]int32{f.nodeBuf[:2*n0], f.nodeBuf[2*n0:]}
	for s, leaf := range f.leaf {
		node := f.node[s]
		copy(node[len(leaf):], leaf)
		for i := len(leaf) - 1; i >= 1; i-- {
			node[i] = first(f.gain, node[2*i], node[2*i+1])
		}
	}
}

// pick returns the first unlocked vertex of side from that may move, or
// -1: none may while from holds one vertex, and otherwise those that fit
// the other side are a prefix of the leaves.
func (f *fm) pick(from int8) int32 {
	if f.count[from] <= 1 {
		return -1
	}
	to := 1 - from
	leaf, node := f.leaf[from], f.node[from]
	if len(leaf) == 0 {
		return -1 // every vertex here arrived this pass, locked
	}
	if !(f.weight[to]+f.m.Vwgt[leaf[len(leaf)-1]] > f.limit[to]) {
		f.nodes++
		return node[1] // the heaviest fits, so all do: the root
	}
	fit := sort.Search(len(leaf)-1, func(i int) bool {
		return f.weight[to]+f.m.Vwgt[leaf[i]] > f.limit[to]
	})
	best := int32(-1)
	for l, r := len(leaf), len(leaf)+fit; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			best = first(f.gain, best, node[l])
			l++
			f.nodes++
		}
		if r&1 == 1 {
			r--
			best = first(f.gain, best, node[r])
			f.nodes++
		}
	}
	return best
}

// replay re-plays the matches above v's leaf in side s's tree after v's
// gain changed or v left, stopping at the first node that keeps a winner
// other than v: nothing above it can tell the difference.
func (f *fm) replay(s int8, v int32) {
	node := f.node[s]
	for i := (len(f.leaf[s]) + int(f.leafAt[v])) >> 1; i >= 1; i >>= 1 {
		f.nodes++
		w := first(f.gain, node[2*i], node[2*i+1])
		if w == node[i] && w != v {
			break
		}
		node[i] = w
	}
}
