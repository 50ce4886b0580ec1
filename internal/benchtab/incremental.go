package benchtab

// Suite "incremental": what the session-stream workload cannot see of
// the online remapping engine. DeltaApply maintains hop-bytes through
// core.IncrementalState at O(deg·log|E|) per delta; its reference is the
// O(|E|) core.HopBytes recompute an online loop would otherwise pay per
// observation. RefineIncremental runs from a fresh, all-dirty state —
// the cost of scoring every task once, where a live session (topobench's
// core.inc_refine_ms) only ever pays for what its last batch changed.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// incCase is one size point: a gx×gy task mesh dealt round-robin onto a
// px×py torus.
type incCase struct {
	gx, gy, px, py int
}

func (c incCase) build() (*taskgraph.Graph, topology.Topology, []int) {
	g := taskgraph.Mesh2D(c.gx, c.gy, 1e5)
	to := topology.MustTorus(c.px, c.py)
	m := make([]int, g.NumVertices())
	for v := range m {
		m[v] = v % to.Nodes()
	}
	return g, to, m
}

// makeDeltas draws n mutations of s — a load, an existing edge's volume
// and a move, in turn — from one seed, as closures so that a measured
// loop does no RNG work.
func makeDeltas(g *taskgraph.Graph, s *core.IncrementalState, procs, n int) []func() error {
	rng := rand.New(rand.NewSource(7))
	out := make([]func() error, n)
	for i := range out {
		v := rng.Intn(g.NumVertices())
		switch i % 3 {
		case 0:
			load := float64(rng.Intn(100))
			out[i] = func() error { return s.SetLoad(v, load) }
		case 1:
			nbrs, _ := g.Neighbors(v) // never empty on a mesh
			u, bytes := int(nbrs[rng.Intn(len(nbrs))]), float64(1+rng.Intn(1000000))
			out[i] = func() error { return s.SetComm(v, u, bytes) }
		default:
			proc := rng.Intn(procs)
			out[i] = func() error { return s.MoveTask(v, proc) }
		}
	}
	return out
}

func deltaApplyRow(smoke bool, c incCase) Row {
	return Row{Suite: "incremental", Name: fmt.Sprintf("DeltaApply/n=%d", c.gx*c.gy), Smoke: smoke, RefName: "recompute",
		Run: func(b *testing.B) {
			g, to, m := c.build()
			s, err := core.NewIncrementalState(g, to, m)
			if err != nil {
				b.Fatal(err)
			}
			deltas := makeDeltas(g, s, to.Nodes(), 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := deltas[i%len(deltas)](); err != nil {
					b.Fatal(err)
				}
			}
		},
		Ref: func(b *testing.B) {
			g, to, m := c.build()
			core.HopBytes(g, to, m) // warm the distance matrix
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.HopBytes(g, to, m)
			}
		},
	}
}

// refineIncrementalRow measures one refinement pass under a migration
// budget (-1: unlimited) over a drifted state whose every task is dirty.
func refineIncrementalRow(smoke bool, c incCase, budget int) Row {
	return Row{Suite: "incremental", Name: fmt.Sprintf("RefineIncremental/n=%d,budget=%d", c.gx*c.gy, budget), Smoke: smoke,
		Run: func(b *testing.B) {
			g, to, m := c.build()
			s0, err := core.NewIncrementalState(g, to, m)
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range makeDeltas(g, s0, to.Nodes(), 2048) {
				if err := d(); err != nil {
					b.Fatal(err)
				}
			}
			opts := core.IncRefineOptions{MaxPasses: 1, MaxMigrations: budget}
			s := s0.Clone()
			s.RefineIncremental(opts) // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s = s0.CloneInto(s) // all-dirty again, and no garbage between runs
				b.StartTimer()
				s.RefineIncremental(opts)
			}
		},
	}
}

func incrementalRows() []Row {
	small, large := incCase{128, 128, 16, 16}, incCase{317, 317, 32, 32} // 16384 and 100489 tasks
	rows := []Row{deltaApplyRow(true, large)}
	for _, c := range []incCase{small, large} {
		for _, budget := range []int{0, 64, -1} {
			rows = append(rows, refineIncrementalRow(c == small && budget == 64, c, budget))
		}
	}
	return rows
}
