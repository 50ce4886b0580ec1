package partition

import "math/rand"

// kwayRefine improves a k-way partition in place with greedy boundary
// passes: each vertex may move to the adjacent part where its external
// connection exceeds its internal connection, provided the move respects
// the balance limit and does not empty its source part. Zero-gain moves
// are taken only when they strictly improve balance. Passes stop early
// when a full pass makes no move.
func kwayRefine(m *CGraph, assign []int, k int, eps float64, passes int, rng *rand.Rand) {
	loads := make([]float64, k)
	counts := make([]int, k)
	for v := 0; v < m.N; v++ {
		loads[assign[v]] += m.Vwgt[v]
		counts[assign[v]]++
	}
	total := m.totalVwgt()
	limit := (1 + eps) * total / float64(k)
	conn := make([]float64, k)
	touched := make([]int, 0, 16)
	order := rng.Perm(m.N)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, vi := range order {
			v := int32(vi)
			from := assign[v]
			if counts[from] <= 1 {
				continue
			}
			adj, w := m.neighbors(v)
			if len(adj) == 0 {
				continue
			}
			touched = touched[:0]
			for i, u := range adj {
				p := assign[u]
				//lint:ignore floatcmp exact-zero sentinel: conn is reset to literal 0 and only accumulates positive edge weights
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += w[i]
			}
			own := conn[from]
			best, bestGain := -1, 0.0
			bestLoad := 0.0
			for _, p := range touched {
				if p == from {
					continue
				}
				gain := conn[p] - own
				if gain < 0 {
					continue
				}
				if loads[p]+m.Vwgt[v] > limit && loads[p]+m.Vwgt[v] >= loads[from] {
					continue // would overflow without improving balance
				}
				improvesBalance := loads[p]+m.Vwgt[v] < loads[from]
				//lint:ignore floatcmp exact tie detection between identically computed gains; an epsilon would merge distinct gains
				if gain > bestGain || (gain == bestGain && improvesBalance && (best < 0 || loads[p] < bestLoad)) {
					if gain > 0 || improvesBalance {
						best, bestGain, bestLoad = p, gain, loads[p]
					}
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best >= 0 {
				assign[v] = best
				loads[from] -= m.Vwgt[v]
				loads[best] += m.Vwgt[v]
				counts[from]--
				counts[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
