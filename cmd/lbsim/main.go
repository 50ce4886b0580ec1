// Command lbsim implements the paper's §5.1 evaluation mechanism: dump a
// load-balancing database from an instrumented run (+LBDump) and evaluate
// mapping strategies offline on the identical load scenario (+LBSim).
//
// Generate a dump from a built-in workload:
//
//	lbsim -dump lean.lbd -workload leanmd:128 -topo torus:16,8
//
// Simulate strategies on a dump:
//
//	lbsim -sim lean.lbd -topo torus:16,8 -strategy topolb,topocentlb,random
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/charm"
	"repro/internal/cliutil"
	"repro/internal/emulator"
	"repro/internal/lbdb"
)

func main() {
	dump := flag.String("dump", "", "instrument the workload and write an LB database to this file")
	sim := flag.String("sim", "", "simulate strategies on this LB database file")
	workload := flag.String("workload", "leanmd:64", "workload for -dump: "+strings.Join(cliutil.PatternNames(), " | "))
	topoSpec := flag.String("topo", "torus:8,8", "topology: "+strings.Join(cliutil.RouterNames(), " | "))
	msg := flag.Float64("msg", 1e4, "message bytes per edge per iteration")
	iters := flag.Int("iters", 10, "instrumented iterations for -dump")
	strategies := flag.String("strategy", "topolb,topocentlb,random",
		"comma-separated strategies for -sim: "+strings.Join(cliutil.StrategyNames(), " | "))
	partName := flag.String("partition", "multilevel", "partitioner: multilevel | greedy")
	seed := flag.Int64("seed", 1, "seed")
	jsonOut := flag.Bool("json", false, "write the dump as JSON instead of gob")
	flag.Parse()

	topo, err := cliutil.ParseTopology(*topoSpec)
	fatalIf(err)
	part, err := cliutil.ParsePartitioner(*partName, *seed)
	fatalIf(err)

	switch {
	case *dump != "":
		g, err := cliutil.ParsePattern(*workload, *msg, *seed)
		fatalIf(err)
		rt, err := charm.NewRuntime(charm.GraphApp{G: g}, emulator.DefaultMachine(topo))
		fatalIf(err)
		_, err = rt.Run(*iters)
		fatalIf(err)
		db, err := rt.Database()
		fatalIf(err)
		f, err := os.Create(*dump)
		fatalIf(err)
		if *jsonOut {
			fatalIf(db.DumpJSON(f))
		} else {
			fatalIf(db.Dump(f))
		}
		fatalIf(f.Close())
		fmt.Printf("dumped step %d: %d chares, %d comm records, %d procs -> %s\n",
			db.Step, len(db.Chares), len(db.Comms), db.NumProcs, *dump)

	case *sim != "":
		f, err := os.Open(*sim)
		fatalIf(err)
		var db *lbdb.Database
		if *jsonOut {
			db, err = lbdb.ReadJSON(f)
		} else {
			db, err = lbdb.Read(f)
		}
		closeErr := f.Close()
		fatalIf(err)
		fatalIf(closeErr)
		fmt.Printf("database: step %d, %d chares on %d procs\n", db.Step, len(db.Chares), db.NumProcs)
		fmt.Printf("%-22s  %12s  %10s  %10s  %10s\n", "strategy", "hop-bytes", "hops/byte", "imbalance", "migrations")
		strats, err := cliutil.ParseStrategies(*strategies, *seed)
		fatalIf(err)
		for _, strat := range strats {
			rep, err := charm.SimulateStep(db, topo, part, strat)
			fatalIf(err)
			fmt.Printf("%-22s  %12.4g  %10.4f  %10.3f  %10d\n",
				rep.Strategy, rep.HopBytes, rep.HopsPerByte, rep.Imbalance, rep.Migrations)
		}

	default:
		fmt.Fprintln(os.Stderr, "lbsim: one of -dump or -sim is required")
		flag.Usage()
		os.Exit(2)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}
