package partition

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/taskgraph"
)

// widthGraph is a 20 000-vertex graph with fractional vertex and edge
// weights, 200 isolated vertices and one vertex joined to 3 000 others:
// large enough that contract stripes its first levels, the coarsest
// level's bisections fork their tries and RCB forks its top blocks.
func widthGraph() (*taskgraph.Graph, [][]float64) {
	const n, isolated, hub = 20000, 200, 500
	rng := rand.New(rand.NewSource(7))
	b := taskgraph.NewBuilder(n)
	for e := 0; e < 4*n; e++ {
		a, c := isolated+rng.Intn(n-isolated), isolated+rng.Intn(n-isolated)
		if a != c {
			b.AddEdge(a, c, 0.01+9.9*rng.Float64())
		}
	}
	for i := 0; i < 3000; i++ {
		if u := isolated + rng.Intn(n-isolated); u != hub {
			b.AddEdge(hub, u, 0.3+rng.Float64())
		}
	}
	coords := make([][]float64, n)
	for v := range coords {
		b.SetVertexWeight(v, 0.37+9.54*rng.Float64())
		// Coordinates on a coarse lattice, so many points tie on an axis.
		coords[v] = []float64{float64(rng.Intn(90)), float64(rng.Intn(70)) / 7, rng.Float64()}
	}
	return b.Build("width"), coords
}

// outputHash accumulates every value a partitioning entry point returns.
type outputHash struct{ h hash.Hash64 }

func (o *outputHash) add(vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		o.h.Write(b[:])
	}
}

// addInts adds every integer of xs.
func addInts[T int | int32 | int8](o *outputHash, xs []T) {
	for _, x := range xs {
		o.add(uint64(x))
	}
}

func (o *outputHash) floats(xs []float64) {
	for _, x := range xs {
		o.add(math.Float64bits(x))
	}
}

// TestPartitionSameAtAnyWidth runs every partitioning entry point at
// GOMAXPROCS 1, 2 and 8 and requires the same bytes at each: the forked
// bisection tries, contraction stripes and coordinate blocks merge in a
// fixed order. FM must also see the same inputs in the same order, and
// touch the same tree nodes, summed over workers, as the serial loop.
func TestPartitionSameAtAnyWidth(t *testing.T) {
	g, coords := widthGraph()
	stencil := taskgraph.Stencil9(64, 64, 1e5)
	targets := make([]int, 48)
	left := g.NumVertices()
	for i := range targets[1:] {
		targets[i] = 200 + 5*i
		left -= targets[i]
	}
	targets[len(targets)-1] = left
	entries := []struct {
		name string
		run  func(o *outputHash) error
	}{
		{"Multilevel.Partition", func(o *outputHash) error {
			for _, k := range []int{2, 64, 1000} {
				r, err := Multilevel{Seed: 3}.Partition(g, k)
				if err != nil {
					return err
				}
				addInts(o, r.Assign)
			}
			return nil
		}},
		{"CapacityPartition", func(o *outputHash) error {
			r, err := CapacityPartition(g, targets, Multilevel{Seed: 5})
			if err != nil {
				return err
			}
			addInts(o, r.Assign)
			return nil
		}},
		{"BuildHierarchy", func(o *outputHash) error {
			h := BuildHierarchy(g, 64)
			for i, lvl := range h.Levels {
				o.add(uint64(lvl.N))
				addInts(o, lvl.Xadj)
				addInts(o, lvl.Adjncy)
				o.floats(lvl.Adjwgt)
				o.floats(lvl.Vwgt)
				addInts(o, lvl.Tcount)
				addInts(o, h.Cmaps[i])
			}
			return nil
		}},
		{"RCB", func(o *outputHash) error {
			for _, k := range []int{2, 7, 1024} {
				r, err := RCB{Coords: coords}.Partition(g, k)
				if err != nil {
					return err
				}
				addInts(o, r.Assign)
			}
			return nil
		}},
		{"CapacityRCB", func(o *outputHash) error {
			r, err := CapacityRCB(coords, targets)
			if err != nil {
				return err
			}
			addInts(o, r.Assign)
			return nil
		}},
		{"FM inputs", func(o *outputHash) error {
			r, nodes, err := partitionCounted(Multilevel{Seed: 1}, stencil, 256, func(m *CGraph, side []int8, target, total float64) {
				o.add(uint64(m.N), math.Float64bits(target), math.Float64bits(total))
				addInts(o, side)
			})
			if err != nil {
				return err
			}
			// The count when FM's selection became a tournament tree.
			if nodes != 1_080_375 {
				t.Errorf("GOMAXPROCS %d: FM touched %d tree nodes, want 1080375", runtime.GOMAXPROCS(0), nodes)
			}
			addInts(o, r.Assign)
			return nil
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, e := range entries {
		var want uint64
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			o := outputHash{fnv.New64a()}
			if err := e.run(&o); err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", e.name, procs, err)
			}
			if got := o.h.Sum64(); procs == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s: output hash %#x at GOMAXPROCS %d, %#x at 1", e.name, got, procs, want)
			}
		}
	}
}
