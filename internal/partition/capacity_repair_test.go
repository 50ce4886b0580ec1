package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/taskgraph"
)

// repairReference is the count repair as hybrid's block phase first ran
// it: while some group is over-full, rescore every member of the lowest
// such group through a map accumulator and move the first member with
// the least loss (weight into its own group minus its largest summed
// weight into one under-full group; with no under-full neighbour, 0 and
// the lowest-index under-full group). CapacityPartition's repairCounts
// keeps its scores instead and rescores only what a move can change; the
// two must agree move for move.
func repairReference(g *taskgraph.Graph, r *Result, targets []int) {
	assign := r.Assign
	counts := r.GroupSizes()
	for {
		over := -1
		for grp, c := range counts {
			if c > targets[grp] {
				over = grp
				break
			}
		}
		if over < 0 {
			return
		}
		bestV, bestTarget := -1, -1
		bestLoss := 0.0
		for v, grp := range assign {
			if grp != over {
				continue
			}
			adj, w := g.Neighbors(v)
			connOwn := 0.0
			connTo := make(map[int]float64)
			for i, u := range adj {
				gu := assign[u]
				if gu == grp {
					connOwn += w[i]
				} else if counts[gu] < targets[gu] {
					connTo[gu] += w[i]
				}
			}
			target, connBest := -1, -1.0
			for gu, c := range connTo {
				//lint:ignore floatcmp exact tie detection: equal sums of the same weights tie-break on the smaller group id
				if c > connBest || (c == connBest && gu < target) {
					target, connBest = gu, c
				}
			}
			if target < 0 {
				for gu, c := range counts {
					if c < targets[gu] {
						target = gu
						break
					}
				}
				connBest = 0
			}
			loss := connOwn - connBest
			if bestV < 0 || loss < bestLoss {
				bestV, bestTarget, bestLoss = v, target, loss
			}
		}
		assign[bestV] = bestTarget
		counts[over]--
		counts[bestTarget]++
	}
}

// repairCase builds a random graph of n vertices with non-unit vertex and
// edge weights, some vertices isolated, and k count targets summing to n:
// all equal when equal is set and k divides n, else a random composition.
func repairCase(seed int64, n, k int, equal bool) (*taskgraph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	b := taskgraph.NewBuilder(n)
	isolated := make([]bool, n)
	for v := range isolated {
		isolated[v] = rng.Intn(8) == 0
		b.SetVertexWeight(v, 0.5+float64(rng.Intn(6)))
	}
	// Few distinct weights make tied sums common, so the tie rules run.
	weights := []float64{0.5, 2, 2, 3.25, 7, 1e3}
	for e := rng.Intn(4*n + 1); e > 0; e-- {
		a, c := rng.Intn(n), rng.Intn(n)
		if a == c || isolated[a] || isolated[c] {
			continue
		}
		w := weights[rng.Intn(len(weights))]
		if rng.Intn(4) == 0 {
			w = 0.01 + 10*rng.Float64()
		}
		b.AddEdge(a, c, w)
	}
	targets := make([]int, k)
	if equal && n%k == 0 {
		for i := range targets {
			targets[i] = n / k
		}
	} else {
		// k-1 distinct cut points in 1..n-1 give k positive parts.
		cuts := rng.Perm(n - 1)[:k-1]
		slices.Sort(cuts)
		prev := 0
		for i, c := range cuts {
			targets[i] = c + 1 - prev
			prev = c + 1
		}
		targets[k-1] = n - prev
	}
	return b.Build("repair-case"), targets
}

// checkRepair fails unless CapacityPartition equals ml's partition
// followed by repairReference, group for group.
func checkRepair(t *testing.T, g *taskgraph.Graph, targets []int, ml Multilevel) {
	t.Helper()
	got, err := CapacityPartition(g, targets, ml)
	if err != nil {
		t.Fatalf("CapacityPartition(%v): %v", targets, err)
	}
	want, err := ml.Partition(g, len(targets))
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	repairReference(g, want, targets)
	if !slices.Equal(got.Assign, want.Assign) {
		t.Fatalf("targets %v, seed %d: repair differs from the reference\n got %v\nwant %v",
			targets, ml.Seed, got.Assign, want.Assign)
	}
	sizes := got.GroupSizes()
	for i, c := range targets {
		if sizes[i] != c {
			t.Fatalf("group %d holds %d, target %d", i, sizes[i], c)
		}
	}
}

// FuzzCapacityRepairMatchesReference holds CapacityPartition to
// Multilevel followed by repairReference. The seeds, which plain go test
// runs, sweep sizes up to 1 200, part counts up to 32 and k = n (k byte
// 255), with equal and uneven targets.
func FuzzCapacityRepairMatchesReference(f *testing.F) {
	for s := int64(1); s <= 40; s++ {
		k := uint8(s % 24)
		if s%10 == 0 {
			k = 255
		}
		f.Add(s, uint16(29*s), k, s%2 == 0, s)
	}
	f.Add(int64(7), uint16(510), uint8(7), true, int64(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k uint8, equal bool, mlSeed int64) {
		nn := 2 + int(n)%1200
		kk := 1 + int(k)%32
		if kk > nn || k == 255 {
			kk = nn
		}
		g, targets := repairCase(seed, nn, kk, equal)
		checkRepair(t, g, targets, Multilevel{Seed: mlSeed})
	})
}
