// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment returns a Table whose rows mirror the
// series the paper plots; cmd/experiments prints them and the root-level
// benchmarks run them under `go test -bench`.
//
// Absolute values are model time (the substrate is a simulator/emulator,
// not the authors' BlueGene), so EXPERIMENTS.md compares *shapes*: who
// wins, by roughly what factor, and where trends cross.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Table is one regenerated table or figure.
type Table struct {
	// ID is the experiment identifier: "table1", "fig1" … "fig11".
	ID string
	// Title describes the experiment.
	Title string
	// Columns names each value column; column 0 is the x-axis.
	Columns []string
	// Rows holds one row per x value.
	Rows [][]float64
	// Notes records workload parameters and caveats.
	Notes string
}

// errWriter accumulates the first write error so formatting code can
// stay linear; after a failure, further writes are no-ops.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// Format renders the table in aligned plain text, returning the first
// write error.
func (t *Table) Format(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		ew.printf("   %s\n", t.Notes)
	}
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := formatValue(v)
			cells[r][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	for i, c := range t.Columns {
		if i > 0 {
			ew.printf("  ")
		}
		ew.printf("%*s", widths[i], c)
	}
	ew.printf("\n")
	ew.printf("%s\n", strings.Repeat("-", sum(widths)+2*(len(widths)-1)))
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				ew.printf("  ")
			}
			ew.printf("%*s", widths[i], s)
		}
		ew.printf("\n")
	}
	ew.printf("\n")
	return ew.err
}

func formatValue(v float64) string {
	switch {
	//lint:ignore floatcmp exact integrality test: float64(int64(v)) round-trips precisely for the guarded |v| < 1e7 range
	case v == float64(int64(v)) && v < 1e7 && v > -1e7:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01 || v <= -0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Experiment is one table generator under its id. quick shrinks problem
// sizes and iteration counts so the full suite runs in seconds; the full
// configuration matches the paper's scales.
type Experiment struct {
	ID  string
	Run func(quick bool) (*Table, error)
}

// Registry lists the paper's experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", Table1}, {"fig1", Fig1}, {"fig2", Fig2}, {"fig3", Fig3},
		{"fig4", Fig4}, {"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7},
		{"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10}, {"fig11", Fig11},
	}
}

// ExtrasRegistry lists the comparisons that go beyond the paper: the
// related-work baselines of §2, the hierarchical mapper the conclusion
// proposes, and adaptive routing in the network simulator.
func ExtrasRegistry() []Experiment {
	return []Experiment{
		{"extras-strategies", ExtrasStrategies},
		{"extras-hybrid", ExtrasHybrid},
		{"extras-routing", ExtrasRouting},
		{"extras-scaling", ExtrasScaling},
		{"extras-modern", ExtrasModern},
		{"extras-buffered", ExtrasBuffered},
		{"extras-wormhole", ExtrasWormhole},
		{"extras-sfc", ExtrasSFC},
		{"extras-hier", ExtrasHier},
		{"scale-multilevel", ExtrasScaleMultilevel},
		{"extras-front", ExtrasFront},
		{"extras-front-tau", ExtrasFrontTau},
	}
}

// All lists the three registries one after another: the paper's
// experiments, the ablations, the extras.
func All() []Experiment {
	return append(append(Registry(), AblationRegistry()...), ExtrasRegistry()...)
}

// Find looks id up in All.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// factor2 splits p into two factors as close to square as possible.
func factor2(p int) (int, int) {
	best := 1
	for a := 1; a*a <= p; a++ {
		if p%a == 0 {
			best = a
		}
	}
	return p / best, best
}

// factor3 splits p into three factors as close to cubic as possible.
func factor3(p int) (int, int, int) {
	bestA, bestB, bestC := p, 1, 1
	bestSpread := p
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			if spread := c - a; spread < bestSpread {
				bestSpread = spread
				bestA, bestB, bestC = c, b, a
			}
		}
	}
	return bestA, bestB, bestC
}

// randomHPB averages hops-per-byte of random mappings over a seed sweep.
func randomHPB(g *taskgraph.Graph, t topology.Topology, seeds int) (float64, error) {
	var firstErr error
	s := stats.Sweep(seeds, func(seed int64) float64 {
		m, err := (core.Random{Seed: seed}).Map(g, t)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return 0
		}
		return core.HopsPerByte(g, t, m)
	})
	if firstErr != nil {
		return 0, firstErr
	}
	return s.Mean, nil
}

// WriteCSV renders the table as RFC-4180-ish CSV (header row, then data),
// for plotting pipelines.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	row := make([]string, len(t.Columns))
	for _, r := range t.Rows {
		for i := range row {
			row[i] = ""
			if i < len(r) {
				row[i] = strconv.FormatFloat(r[i], 'g', -1, 64)
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
