package partition

import "math/rand"

// bisect splits m into two sides, side 0 targeting leftFrac of the total
// vertex weight. It runs greedy graph-growing from several seeds, refines
// each candidate with FM, and returns the side assignment with the
// smallest edge cut among balanced candidates.
func bisect(m *CGraph, leftFrac float64, rng *rand.Rand, tries int) []int8 {
	if m.N == 1 {
		return []int8{0}
	}
	total := m.totalVwgt()
	target := total * leftFrac
	var best []int8
	bestCut := -1.0
	bestBal := -1.0
	for t := 0; t < tries; t++ {
		side := growRegion(m, target, rng)
		fmRefineBisection(m, side, target, total)
		cut := bisectionCut(m, side)
		bal := bisectionImbalance(m, side, target, total)
		if best == nil || better(cut, bal, bestCut, bestBal) {
			best = append(best[:0], side...)
			bestCut, bestBal = cut, bal
		}
	}
	return best
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

// growRegion grows side 0 from a random seed by repeatedly absorbing the
// unassigned vertex with the strongest connection to the region until the
// target weight is reached. Both sides are guaranteed non-empty.
func growRegion(m *CGraph, target float64, rng *rand.Rand) []int8 {
	side := make([]int8, m.N)
	for i := range side {
		side[i] = 1
	}
	conn := make([]float64, m.N) // connection of each side-1 vertex to side 0
	seed := int32(rng.Intn(m.N))
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

// fmRefineBisection runs Fiduccia–Mattheyses passes on a bisection: each
// pass tentatively moves every vertex once in best-gain order, then keeps
// the best prefix seen. Balance may drift within 15 % of the targets and
// neither side may empty.
func fmRefineBisection(m *CGraph, side []int8, target, total float64) {
	const maxPasses = 6
	n := int32(m.N)
	gain := make([]float64, n)
	locked := make([]bool, n)
	count := [2]int{}
	weight := [2]float64{}
	for v := int32(0); v < n; v++ {
		count[side[v]]++
		weight[side[v]] += m.Vwgt[v]
	}
	limit := [2]float64{target * 1.15, (total - target) * 1.15}
	for pass := 0; pass < maxPasses; pass++ {
		for v := int32(0); v < n; v++ {
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
		type move struct {
			v    int32
			gain float64
		}
		var history []move
		cum, bestCum, bestIdx := 0.0, 0.0, -1
		for step := int32(0); step < n; step++ {
			best := int32(-1)
			bestGain := 0.0
			for v := int32(0); v < n; v++ {
				if locked[v] {
					continue
				}
				from, to := side[v], 1-side[v]
				if count[from] <= 1 || weight[to]+m.Vwgt[v] > limit[to] {
					continue
				}
				if best < 0 || gain[v] > bestGain {
					best, bestGain = v, gain[v]
				}
			}
			if best < 0 {
				break
			}
			from, to := side[best], 1-side[best]
			side[best] = to
			locked[best] = true
			count[from]--
			count[to]++
			weight[from] -= m.Vwgt[best]
			weight[to] += m.Vwgt[best]
			cum += bestGain
			history = append(history, move{best, bestGain})
			if cum > bestCum {
				bestCum, bestIdx = cum, len(history)-1
			}
			adj, w := m.neighbors(best)
			for i, u := range adj {
				if locked[u] {
					continue
				}
				if side[u] == side[best] {
					gain[u] -= 2 * w[i]
				} else {
					gain[u] += 2 * w[i]
				}
			}
		}
		// Roll back moves after the best prefix.
		for i := len(history) - 1; i > bestIdx; i-- {
			v := history[i].v
			from, to := side[v], 1-side[v]
			side[v] = to
			count[from]--
			count[to]++
			weight[from] -= m.Vwgt[v]
			weight[to] += m.Vwgt[v]
		}
		if bestCum <= 0 {
			break
		}
	}
}
