package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/taskgraph"
)

// referenceScanFM is fmRefineBisection as it stood before the tournament
// tree (a024815), verbatim: every step finds its vertex by a sweep of all n
// in id order. Two additions, neither touching a decision: it hands each
// pass's moves to record, and returns how many vertices its sweeps
// visited.
func referenceScanFM(m *CGraph, side []int8, target, total float64, record func(pass int, moves []fmMove)) (scans int64) {
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
		type move = fmMove
		var history []move
		cum, bestCum, bestIdx := 0.0, 0.0, -1
		for step := int32(0); step < n; step++ {
			best := int32(-1)
			bestGain := 0.0
			scans += int64(n)
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
		record(pass, history)
		if bestCum <= 0 {
			break
		}
	}
	return scans
}

// fmTrial returns a trial ready for fmRefineBisection on m.
func fmTrial(m *CGraph) *trial {
	ar := &arena{}
	ar.forBisection(m.N, 1)
	for i := range ar.byWgt {
		ar.byWgt[i] = int32(i)
	}
	sortByWeight(m, ar.byWgt)
	return &ar.try0
}

// checkFMAgainstScan runs the tree FM and the scan reference from the same
// start and fails unless they make the same moves — vertex and gain bits,
// step for step, in every pass — and leave the same sides.
func checkFMAgainstScan(t testing.TB, m *CGraph, start []int8, target, total float64) {
	t.Helper()
	var want [][]fmMove
	refSide := slices.Clone(start)
	referenceScanFM(m, refSide, target, total, func(_ int, moves []fmMove) {
		want = append(want, slices.Clone(moves))
	})

	// Pass by pass, as fmRefineBisection drives them.
	side := slices.Clone(start)
	f := newFM(m, side, target, total, fmTrial(m))
	passes := 0
	for passes < fmMaxPasses {
		got, bestCum := f.pass()
		if passes >= len(want) {
			t.Fatalf("n=%d: pass %d ran; the reference stopped after %d", m.N, passes, len(want))
		}
		ref := want[passes]
		for i := 0; i < len(got) && i < len(ref); i++ {
			if got[i].v != ref[i].v || math.Float64bits(got[i].gain) != math.Float64bits(ref[i].gain) {
				t.Fatalf("n=%d pass %d step %d: moved vertex %d (gain %v), the reference moved %d (gain %v)",
					m.N, passes, i, got[i].v, got[i].gain, ref[i].v, ref[i].gain)
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("n=%d pass %d: %d moves, the reference made %d", m.N, passes, len(got), len(ref))
		}
		passes++
		if bestCum <= 0 {
			break
		}
	}
	if passes != len(want) {
		t.Fatalf("n=%d: %d passes, the reference ran %d", m.N, passes, len(want))
	}
	if !slices.Equal(side, refSide) {
		t.Fatalf("n=%d: sides differ after identical moves", m.N)
	}

	// And whole, through the entry point the partitioner calls.
	side = slices.Clone(start)
	fmRefineBisection(m, side, target, total, fmTrial(m))
	if !slices.Equal(side, refSide) {
		t.Fatalf("n=%d: fmRefineBisection's sides differ from the reference's", m.N)
	}
}

// halfEdge is one direction of an undirected test edge.
type halfEdge struct {
	u int32
	w float64
}

// connected reports whether a and b are already joined (or are the same
// vertex): test graphs carry no self-loops or repeated edges.
func connected(adj [][]halfEdge, a, b int32) bool {
	return a == b || slices.ContainsFunc(adj[a], func(e halfEdge) bool { return e.u == b })
}

func connect(adj [][]halfEdge, a, b int32, w float64) {
	adj[a] = append(adj[a], halfEdge{b, w})
	adj[b] = append(adj[b], halfEdge{a, w})
}

// cgraphOf lays adjacency lists out as a CGraph, vertex v weighing vw(v).
func cgraphOf(adj [][]halfEdge, vw func(v int) float64) *CGraph {
	n := len(adj)
	m := &CGraph{N: n, Xadj: make([]int32, n+1), Vwgt: make([]float64, n)}
	for v := range adj {
		m.Vwgt[v] = vw(v)
		for _, e := range adj[v] {
			m.Adjncy = append(m.Adjncy, e.u)
			m.Adjwgt = append(m.Adjwgt, e.w)
		}
		m.Xadj[v+1] = int32(len(m.Adjncy))
	}
	return m
}

// crosscheckGraph draws an undirected weighted graph on n vertices with
// about deg·n/2 edges, the first isolated of them left without any.
// Weights come from vw and ew.
func crosscheckGraph(rng *rand.Rand, n, deg, isolated int, vw, ew func() float64) *CGraph {
	adj := make([][]halfEdge, n)
	if live := n - isolated; live >= 2 {
		for e := 0; e < deg*live/2; e++ {
			a, b := int32(isolated+rng.Intn(live)), int32(isolated+rng.Intn(live))
			if !connected(adj, a, b) {
				connect(adj, a, b, ew())
			}
		}
	}
	return cgraphOf(adj, func(int) float64 { return vw() })
}

// TestFMMatchesScanReference holds the tournament-tree FM to the scan it
// replaced, move for move, on seeded graphs of every weight family and on
// starts the partitioner rarely or never produces.
func TestFMMatchesScanReference(t *testing.T) {
	one := func() float64 { return 1 }
	families := []struct {
		name   string
		vw, ew func(rng *rand.Rand) func() float64
	}{
		{"uniform",
			func(*rand.Rand) func() float64 { return one },
			func(*rand.Rand) func() float64 { return one }},
		{"fractional",
			func(rng *rand.Rand) func() float64 { return func() float64 { return 0.37 + 9.54*rng.Float64() } },
			func(rng *rand.Rand) func() float64 { return func() float64 { return 0.01 + rng.Float64() } }},
		// Tenths: sums that round differently in different orders, and many
		// exact gain ties between them.
		{"tenths",
			func(rng *rand.Rand) func() float64 { return func() float64 { return float64(1+rng.Intn(9)) / 10 } },
			func(rng *rand.Rand) func() float64 { return func() float64 { return float64(1+rng.Intn(3)) / 10 } }},
		{"zero-weight vertices",
			func(rng *rand.Rand) func() float64 { return func() float64 { return float64(rng.Intn(3)) } },
			func(rng *rand.Rand) func() float64 { return func() float64 { return float64(1 + rng.Intn(4)) } }},
	}
	starts := []string{"random", "grown", "overweight", "single", "empty"}
	cases := 0
	for fi, fam := range families {
		for rep := 0; rep < 100; rep++ {
			rng := rand.New(rand.NewSource(int64(1000*fi + rep)))
			n := 2 + rep%7
			if rep >= 20 {
				n = 2 + rng.Intn(300)
			}
			isolated := 0
			if rep%4 == 3 {
				isolated = rng.Intn(n/2 + 1)
			}
			m := crosscheckGraph(rng, n, 2+rng.Intn(7), isolated, fam.vw(rng), fam.ew(rng))
			total := m.totalVwgt()
			target := total * (0.2 + 0.6*rng.Float64())
			start := make([]int8, n)
			switch starts[rep%len(starts)] {
			case "random":
				for v := range start {
					start[v] = int8(rng.Intn(2))
				}
			case "grown": // what bisect hands FM
				copy(start, growRegion(m, target, int32(rng.Intn(m.N)), fmTrial(m)))
			case "overweight": // side 1 starts far over its limit
				for v := range start {
					if rng.Intn(10) > 0 {
						start[v] = 1
					}
				}
			case "single": // side 0 holds one vertex, which may not leave
				for v := range start {
					start[v] = 1
				}
				start[rng.Intn(n)] = 0
			case "empty":
				for v := range start {
					start[v] = 1
				}
			}
			if fam.name == "tenths" && rep%2 == 0 {
				// A limit that some sum of vertex weights lands on or
				// within an ulp of: where weight+Vwgt > limit and
				// Vwgt > limit-weight part ways.
				sum := 0.0
				for v := range start {
					if rng.Intn(2) == 0 {
						sum += m.Vwgt[v]
					}
				}
				target = sum / 1.15
			}
			checkFMAgainstScan(t, m, start, target, total)
			cases++
		}
	}
	if cases < 300 {
		t.Fatalf("%d cases, want at least 300", cases)
	}
}

// FuzzFMMatchesScan decodes bytes into a small weighted graph, a split and
// a target, and holds the tree FM to the scan reference on it.
func FuzzFMMatchesScan(f *testing.F) {
	f.Add([]byte{6, 40, 0x15, 4, 4, 4, 4, 4, 4, 0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 4, 4, 4, 5, 4, 5, 0, 4})
	f.Add([]byte{3, 128, 0x01, 0, 7, 2, 0, 1, 1, 1, 2, 9})
	f.Add([]byte{2, 0, 0x02, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%31
		frac := 0.2 + 0.6*float64(data[1])/255
		sides := data[2:]
		if len(sides) < (n+7)/8+n {
			return
		}
		start := make([]int8, n)
		for v := range start {
			start[v] = int8(sides[v/8] >> (v % 8) & 1)
		}
		weights := sides[(n+7)/8:]
		// Each triple is an edge (u, v, weight in tenths); repeats and
		// self-loops are dropped.
		adj := make([][]halfEdge, n)
		for e := weights[n:]; len(e) >= 3; e = e[3:] {
			a, b := int32(int(e[0])%n), int32(int(e[1])%n)
			if !connected(adj, a, b) {
				connect(adj, a, b, float64(1+e[2]%32)/10)
			}
		}
		// Vertex weights are quarters from 0, so sums tie exactly.
		m := cgraphOf(adj, func(v int) float64 { return float64(weights[v]%16) / 4 })
		total := m.totalVwgt()
		checkFMAgainstScan(t, m, start, total*frac, total)
	})
}

// TestFMSelectionWork pins, without a clock, what the tournament tree is
// for: the tree nodes one Partition call's FM passes touch, against the
// vertices the scan reference sweeps on the very same FM inputs.
func TestFMSelectionWork(t *testing.T) {
	g := taskgraph.Stencil9(64, 64, 1e5)
	var calls, scans int64
	r, nodes, err := partitionCounted(Multilevel{Seed: 1}, g, 256, func(m *CGraph, side []int8, target, total float64) {
		calls++
		scans += referenceScanFM(m, slices.Clone(side), target, total, func(int, []fmMove) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := assignHash(r.Assign), uint64(0x991caef338fe01a2); got != want {
		t.Fatalf("assignment hash %#x, want %#x: not the call this test measures", got, want)
	}
	t.Logf("%d FM calls: tree nodes touched %d, reference scan iterations %d (%.1fx)", calls, nodes, scans, float64(scans)/float64(nodes))
	// 1 080 375 at the commit that introduced the tree (against 13 184 903
	// swept by the scan); the ceiling is 1.25x that.
	const ceiling = 1_350_000
	if nodes > ceiling {
		t.Fatalf("FM touched %d tree nodes, ceiling %d", nodes, ceiling)
	}
}
