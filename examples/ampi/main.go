// AMPI demonstrates the Adaptive-MPI-style veneer: an MPI-like program —
// 256 virtual ranks doing a Cartesian halo exchange, a periodic allreduce,
// and uneven computation — runs on a 64-processor torus (virtualization
// ratio 4). The runtime measures rank loads and communication, then
// migrates ranks with the topology-aware pipeline, exactly how the paper
// makes its strategies "available to many applications written using
// Charm++ as well as MPI".
package main

import (
	"fmt"
	"log"

	topomap "repro"
)

func main() {
	const ranks = 256
	world, err := topomap.NewMPIWorld(ranks)
	if err != nil {
		log.Fatal(err)
	}
	// A 16x16 halo exchange with 100 KB faces, an 8-byte allreduce
	// (convergence check), and computation that is heavier in the domain
	// center — the load imbalance that motivates migratable ranks.
	world.Cart2D(16, 16, 1e5)
	world.Barrier()
	for r := 0; r < ranks; r++ {
		x, y := r/16, r%16
		dist := abs(x-8) + abs(y-8)
		world.Compute(r, 20e-6+float64(float64(16-dist)*2e-6))
	}

	torus, err := topomap.NewTorus(8, 8)
	if err != nil {
		log.Fatal(err)
	}
	job, err := world.Launch(topomap.DefaultMachine(torus))
	if err != nil {
		log.Fatal(err)
	}

	before, err := job.Run(25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d ranks on %d processors (virtualization ratio %d)\n",
		ranks, torus.Nodes(), ranks/torus.Nodes())
	fmt.Printf("block placement:      %6.2f ms/iter, %.2f avg hops\n",
		before.IterationTime*1e3, before.AvgHops)

	migrated, err := job.Rebalance(nil, nil) // multilevel + TopoLB+Refine
	if err != nil {
		log.Fatal(err)
	}
	after, err := job.Run(25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after migrating %d ranks: %6.2f ms/iter, %.2f avg hops (%.0f%% faster)\n",
		migrated, after.IterationTime*1e3, after.AvgHops,
		100*(1-after.IterationTime/before.IterationTime))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
