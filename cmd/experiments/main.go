// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-id table1|fig1|...|fig11|ablation-*|all]
//
// Without -quick, problem sizes match the paper's (the fig1 sweep reaches
// p = 6084 and can take minutes). Output is one aligned text table per
// experiment, with the same rows/series the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced sizes/iterations (seconds instead of minutes)")
	id := flag.String("id", "all", "experiment id (table1, fig1..fig11, ablation-*, extras-*, all, ablations, extras)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	flag.Parse()

	if *list {
		var ids []string
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		sort.Strings(ids)
		for _, k := range ids {
			fmt.Println(k)
		}
		return
	}

	var run []experiments.Experiment
	switch *id {
	case "all":
		run = experiments.Registry()
	case "ablations":
		run = experiments.AblationRegistry()
	case "extras":
		run = experiments.ExtrasRegistry()
	default:
		e, ok := experiments.Find(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", *id)
			os.Exit(2)
		}
		run = []experiments.Experiment{e}
	}
	// Generate the selected experiments in parallel — each is independent
	// and internally deterministic — but print strictly in id order so the
	// output matches the serial run byte for byte.
	type generated struct {
		tbl *experiments.Table
		err error
	}
	tables := parallel.Map(len(run), 1, func(i int) generated {
		tbl, err := run[i].Run(*quick)
		return generated{tbl: tbl, err: err}
	})
	for i, e := range run {
		k := e.ID
		tbl, err := tables[i].tbl, tables[i].err
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", k, err)
			os.Exit(1)
		}
		if err := tbl.Format(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*outDir, k+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if err := tbl.WriteCSV(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}
}
