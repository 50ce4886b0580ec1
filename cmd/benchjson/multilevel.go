package main

// The multilevel suite records the hierarchical mapper's scaling story:
// "baseline" is the flat two-phase pipeline (partition.Multilevel +
// TopoLB on the quotient, distance matrix allowed), "optimized" is
// core.MultilevelMap (coarsen → map → refine, closed-form distances
// only). Rows share a name across modes; the optimized row carries
// speedup and hop_bytes_ratio (multilevel ÷ flat) against its baseline
// counterpart. At the largest sizes the flat pipeline is infeasible —
// the distance matrix alone would exceed the materialization cap by two
// orders of magnitude — so those rows are optimized-only by design.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// mlBenchCase is one (task graph, machine) size point. flat gates the
// baseline rows: the flat pipeline only runs where it completes in
// reasonable time and under the distance-matrix cap.
type mlBenchCase struct {
	name string
	g    *taskgraph.Graph
	topo topology.Topology
	flat bool
}

// multilevelCases grows from a few thousand tasks to the million-task
// headline. Large graphs are built lazily by gating on quick so smoke
// and quick runs never pay for them.
func multilevelCases(quick bool) []mlBenchCase {
	cs := []mlBenchCase{
		{
			name: "stencil9:64,64/torus:16,16",
			g:    taskgraph.Stencil9(64, 64, 1e5),
			topo: topology.MustTorus(16, 16),
			flat: true,
		},
		{
			name: "stencil9:128,128/torus:32,16",
			g:    taskgraph.Stencil9(128, 128, 1e5),
			topo: topology.MustTorus(32, 16),
			flat: true,
		},
	}
	if !quick {
		cs = append(cs,
			mlBenchCase{
				name: "rgg:65536,8/torus:32,32",
				g:    taskgraph.RandomGeometricDeg(65536, 8, 1e5, 1),
				topo: topology.MustTorus(32, 32),
				flat: true,
			},
			mlBenchCase{
				name: "stencil9:256,256/torus:32,32",
				g:    taskgraph.Stencil9(256, 256, 1e5),
				topo: topology.MustTorus(32, 32),
				flat: true,
			},
			mlBenchCase{
				name: "stencil9:512,512/torus:16,16,16",
				g:    taskgraph.Stencil9(512, 512, 1e5),
				topo: topology.MustTorus(16, 16, 16),
				flat: true,
			},
			mlBenchCase{
				name: "stencil9:1024,1024/torus:64,32,32",
				g:    taskgraph.Stencil9(1024, 1024, 1e5),
				topo: topology.MustTorus(64, 32, 32),
				flat: false, // p=65536: the flat pipeline needs a 65536² matrix
			},
		)
	}
	return cs
}

// flatPlace is the baseline: the repo's flat two-phase pipeline expanded
// to a per-task placement.
func flatPlace(g *taskgraph.Graph, t topology.Topology) ([]int, error) {
	res, err := core.MapTasks(g, t, partition.Multilevel{Seed: 1}, core.TopoLB{})
	if err != nil {
		return nil, err
	}
	return res.Placement, nil
}

// runMultilevelSuite measures every size point, pairing each optimized
// row with its baseline by name where the flat pipeline ran.
func runMultilevelSuite(quick, smoke bool) []Result {
	cs := multilevelCases(quick)
	if smoke {
		cs = cs[:1]
	}
	var results []Result
	for _, c := range cs {
		var baseNs, hbFlat float64
		if c.flat {
			var pl []int
			if _, err := flatPlace(c.g, c.topo); err != nil { // warm distance matrix
				fmt.Println("benchjson: flat", c.name, "failed:", err)
				continue
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := flatPlace(c.g, c.topo)
					if err != nil {
						b.Fatal(err)
					}
					pl = out
				}
			})
			baseNs = float64(r.T.Nanoseconds()) / float64(r.N)
			hbFlat = core.HopBytes(c.g, c.topo, pl)
			results = append(results, Result{
				Name:        c.name,
				Mode:        "baseline",
				GOMAXPROCS:  runtime.GOMAXPROCS(0),
				NsPerOp:     baseNs,
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Iterations:  r.N,
			})
		}
		var pl []int
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := (core.MultilevelMap{}).Place(c.g, c.topo)
				if err != nil {
					b.Fatal(err)
				}
				pl = out
			}
		})
		row := Result{
			Name:        c.name,
			Mode:        "optimized",
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
		if baseNs > 0 && row.NsPerOp > 0 {
			row.Speedup = baseNs / row.NsPerOp
		}
		if hbFlat > 0 {
			row.HopBytesRatio = core.HopBytes(c.g, c.topo, pl) / hbFlat
		}
		results = append(results, row)
	}
	return results
}
