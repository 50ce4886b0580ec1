package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/taskgraph"
)

// stagedPartition is Multilevel{Seed: seed}.Partition(g, k) at its
// defaults, stage by stage, calling see with the level graph and its
// assignment after the recursive bisection of the coarsest level, after
// that level's k-way refinement, and after the last uncoarsening step. It
// returns the final assignment, which the caller checks against
// Partition's own: this copy of the driver is only trusted while the two
// agree.
func stagedPartition(g *taskgraph.Graph, k int, seed int64, see func(stage string, m *CGraph, assign []int)) []int {
	const eps, tries, passes = 0.10, 4, 4
	coarsenTo := max(128, 4*k)
	rng := rand.New(rand.NewSource(seed))
	ar := &arena{}
	m0 := FromTaskGraph(g)
	maxVwgt := 1.5 * m0.totalVwgt() / float64(k)
	levels := []*CGraph{m0}
	var cmaps [][]int32
	ar.forCoarsening(m0.N)
	for levels[len(levels)-1].N > coarsenTo {
		cur := levels[len(levels)-1]
		coarse, cmap := coarsen(cur, rng, maxVwgt, ar)
		if coarse.N >= cur.N || float64(coarse.N) > 0.95*float64(cur.N) {
			break
		}
		levels, cmaps = append(levels, coarse), append(cmaps, cmap)
	}
	coarsest := levels[len(levels)-1]
	ar.forBisection(coarsest.N, tries)
	assign := make([]int, coarsest.N)
	ids := make([]int32, coarsest.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	recursiveBisect(coarsest, ids, k, 0, assign, rng, tries, ar)
	see("recursive bisection", coarsest, assign)
	kwayRefine(coarsest, assign, k, eps, passes, rng)
	see("coarsest k-way refine", coarsest, assign)
	for lvl := len(levels) - 2; lvl >= 0; lvl-- {
		projected := make([]int, levels[lvl].N)
		for v := range projected {
			projected[v] = assign[cmaps[lvl][v]]
		}
		assign = projected
		kwayRefine(levels[lvl], assign, k, eps, passes, rng)
	}
	see("finest k-way refine", m0, assign)
	return assign
}

// driftByDepth walks the recursion tree recursiveBisect cut (parts
// [offset, offset+k) split into the first (k+1)/2 and the rest) over the
// parts' loads and returns, per depth, the worst ratio of a side's load to
// its share of the parent's — the drift that depth's bisections left.
func driftByDepth(loads []float64) []float64 {
	var worst []float64
	var walk func(offset, k, depth int)
	walk = func(offset, k, depth int) {
		if k == 1 {
			return
		}
		if depth == len(worst) {
			worst = append(worst, 0)
		}
		k1 := (k + 1) / 2
		sum := func(part []float64) (s float64) {
			for _, l := range part {
				s += l
			}
			return s
		}
		w0, w1 := sum(loads[offset:offset+k1]), sum(loads[offset+k1:offset+k])
		for _, d := range []float64{
			ratio(w0, (w0+w1)*float64(k1)/float64(k)),
			ratio(w1, (w0+w1)*float64(k-k1)/float64(k)),
		} {
			worst[depth] = max(worst[depth], d)
		}
		walk(offset, k1, depth+1)
		walk(offset+k1, k-k1, depth+1)
	}
	walk(0, len(loads), 0)
	return worst
}

// TestMultilevelImbalanceFinding answers ROADMAP item 5's question for
// the two jobs svc-cold partitions, whose partition.imbalance reads 1.375
// and up to 1.78 against a documented ε of 0.10: granularity or bug?
// Granularity of the wrong level, and nothing that repairs it. Every
// vertex is lighter than ε of a part, so the finest level could be
// balanced. But recursive bisection runs on the coarsest level, where a
// part is about three vertices and the heaviest is half a part; each
// bisection's FM may leave a side 15 % over its share, and from the
// fourth depth down the log shows it doing so (1.147–1.150), the drifts of
// eight depths multiplying to 1.83–1.88. And kwayRefine, at every level,
// only takes moves of gain ≥ 0 whose target stays under the limit — it
// never moves a vertex out of a part because that part is too heavy — so
// it removes none of the excess on the coarsest level and about half of
// it on the finer ones, by the way. No arithmetic is wrong in
// ensureSideCounts, repairEmptyGroups or kwayRefine; a pass that forces
// balance is missing. The ceilings are the values when this was written,
// so the gap cannot grow until such a pass (a declared, re-recorded change
// of partitions) closes it.
func TestMultilevelImbalanceFinding(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *taskgraph.Graph
		k       int
		ceiling float64 // of Result.Imbalance, today's value
	}{
		{"stencil9:64,64", taskgraph.Stencil9(64, 64, 1e5), 256, 1.375},
		{"leanmd:256", taskgraph.LeanMD(256, 1e5, 1), 256, 1.502},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Multilevel{Seed: 1}.Partition(tc.g, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			maxV := slices.Max(tc.g.VertexWeights())
			avg := FromTaskGraph(tc.g).totalVwgt() / float64(tc.k)
			t.Logf("heaviest vertex %.3f = %.3f of a mean part (ε = 0.10): the finest level is not what limits balance", maxV, maxV/avg)
			var imbalance []float64
			got := stagedPartition(tc.g, tc.k, 1, func(stage string, m *CGraph, assign []int) {
				loads := make([]float64, tc.k)
				for v, p := range assign {
					loads[p] += m.Vwgt[v]
				}
				imb := slices.Max(loads) / avg
				imbalance = append(imbalance, imb)
				t.Logf("after %-22s %5d vertices (%.1f a part, heaviest %.3f of a mean part): imbalance %.4f, worst side/share by depth %.3f",
					stage+":", m.N, float64(m.N)/float64(tc.k), slices.Max(m.Vwgt)/avg, imb, driftByDepth(loads))
			})
			if !slices.Equal(got, want.Assign) {
				t.Fatal("stagedPartition no longer computes what Partition computes; update it")
			}
			t.Logf("k-way refinement removed %.4f of %.4f excess over perfect balance", imbalance[0]-imbalance[2], imbalance[0]-1)
			if imb := want.Imbalance(tc.g); imb > tc.ceiling {
				t.Errorf("imbalance %v, ceiling %v (the value when the finding was written)", imb, tc.ceiling)
			}
		})
	}
}
