package cliutil

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// propertyMachines are small machines of every kind the parsers build:
// each row of the machine table, flat and as the leaf of a hierarchy.
// hybrid:2x2 tiles the torus.
var propertyMachines = machineSpecs()

// placeOn runs one row's strategy on one machine: at n == p through Map,
// at n == 4p (with coordinates, so the geometric constructors get some)
// through the two-phase pipeline. A panic comes back as a test failure.
func placeOn(t *testing.T, r StrategyRow, topo topology.Topology, perProc int) (placement []int, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s on %s panicked: %v", r.Name, topo.Name(), p)
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	n := topo.Nodes() * perProc
	g := taskgraph.Random(n, 3*n, 1, 20, 7)
	if perProc == 1 {
		return r.New(1, nil).Map(g, topo)
	}
	coords := make([][]float64, n)
	for v := range coords {
		coords[v] = []float64{float64(v % 8), float64(v / 8)}
	}
	res, err := core.MapTasks(g, topo, partition.Multilevel{Seed: 1}, r.New(1, coords))
	if err != nil {
		return nil, err
	}
	return res.Placement, nil
}

// checkRow is the property every row of the table must have: on each
// machine, alone (n == p) and through the pipeline (n > p), it either
// refuses with an error or places every task on a processor in range —
// one task per processor at n == p — and does exactly the same again and
// at every GOMAXPROCS. A row for hierarchies refuses every flat machine;
// every row serves some machine.
func checkRow(t *testing.T, r StrategyRow) {
	if r.Bind != nil {
		// Block shapes are the only argument grammar so far; a prefix row
		// with another one must teach this test an argument of its own.
		kind, _, _ := strings.Cut(r.Name, ":")
		bound, err := FindStrategy(kind + ":2x2")
		if err != nil {
			t.Fatalf("row %s does not bind the argument 2x2: %v", r.Name, err)
		}
		r = bound
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	served := 0
	for _, spec := range propertyMachines {
		topo, err := ParseAnyTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, flat := strings.CutPrefix(spec, "hier:")
		flat = !flat
		for _, perProc := range []int{1, 4} {
			runtime.GOMAXPROCS(1)
			first, firstErr := placeOn(t, r, topo, perProc)
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				again, err := placeOn(t, r, topo, perProc)
				if fmt.Sprint(err) != fmt.Sprint(firstErr) || !slices.Equal(again, first) {
					t.Errorf("%s on %s, %d tasks per processor: not repeatable at GOMAXPROCS %d (%v then %v)",
						r.Name, spec, perProc, procs, firstErr, err)
				}
			}
			if firstErr != nil {
				continue
			}
			if r.NeedsHierarchy && flat {
				t.Errorf("%s needs a hierarchy but mapped onto %s", r.Name, spec)
			}
			served++
			p := topo.Nodes()
			if len(first) != p*perProc {
				t.Fatalf("%s on %s: %d placements for %d tasks", r.Name, spec, len(first), p*perProc)
			}
			tasksOn := make([]int, p)
			for v, proc := range first {
				if proc < 0 || proc >= p {
					t.Fatalf("%s on %s: task %d on processor %d, outside [0,%d)", r.Name, spec, v, proc, p)
				}
				tasksOn[proc]++
			}
			if perProc == 1 && slices.Max(tasksOn) != 1 {
				t.Errorf("%s on %s: not a bijection at n == p", r.Name, spec)
			}
		}
	}
	t.Logf("%s served %d of %d (machine, size) cases", r.Name, served, 2*len(propertyMachines))
	if served == 0 {
		t.Errorf("%s refused every machine of %v", r.Name, propertyMachines)
	}
}

// TestPropertyStrategiesAlwaysBijective holds every row of the strategy
// table to checkRow; a new row is covered by being a row.
func TestPropertyStrategiesAlwaysBijective(t *testing.T) {
	for _, r := range StrategyTable() {
		t.Run(r.Name, func(t *testing.T) { checkRow(t, r) })
	}
}

// reversed maps task i to the last-but-i processor: a strategy no table
// row builds.
type reversed struct{}

func (reversed) Name() string { return "Reversed" }
func (reversed) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	m := make(core.Mapping, g.NumVertices())
	for i := range m {
		m[i] = len(m) - 1 - i
	}
	return m, m.Validate(g, t)
}

// TestOneRowAddsAStrategy appends a row and finds the strategy parsed,
// listed, named in the unknown-strategy message and under the property
// test, with no other edit.
func TestOneRowAddsAStrategy(t *testing.T) {
	saved := strategyTable
	defer func() { strategyTable = saved }()
	strategyTable = append(slices.Clone(saved), StrategyRow{Name: "reversed", New: plain(reversed{})})

	if s, err := ParseStrategy("reversed", 1); err != nil || s.Name() != "Reversed" {
		t.Fatalf("ParseStrategy(reversed) = %v, %v", s, err)
	}
	if ss, err := ParseStrategies("topolb,reversed", 1); err != nil || len(ss) != 2 {
		t.Errorf("ParseStrategies(topolb,reversed) = %v, %v", ss, err)
	}
	if names := StrategyNames(); names[len(names)-1] != "reversed" {
		t.Errorf("StrategyNames() = %v, want reversed last", names)
	}
	if _, err := ParseStrategy("nope", 1); err == nil || !strings.Contains(err.Error(), ", reversed)") {
		t.Errorf("unknown-strategy message %q does not list the new row", err)
	}
	rows := StrategyTable()
	checkRow(t, rows[len(rows)-1])
}

// TestStrategyNamesPinned: the names, their order and the unknown-strategy
// message are wire bytes (topomapd answers 400 with the message).
func TestStrategyNamesPinned(t *testing.T) {
	const want = `cliutil: unknown strategy "nope" (known: topolb, topolb1, topolb3, topocentlb, multilevel, hier, sfc, rcb-sfc, random, identity, annealing, hybrid:BXxBY[x...])`
	if _, err := ParseStrategy("nope", 1); err == nil || err.Error() != want {
		t.Errorf("unknown-strategy message\n got %v\nwant %s", err, want)
	}
}

// portfolioRows are the rows with a place in the auto portfolio, by place.
func portfolioRows() []StrategyRow {
	var rows []StrategyRow
	for _, r := range StrategyTable() {
		if r.Auto > 0 {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Auto < rows[b].Auto })
	return rows
}

// TestPortfolioRowsWellFormed: the places rows claim in the auto portfolio
// are 1..k, each once, floor rows first, every member with a cost model —
// a missing one must fail here, not estimate zero in a response.
func TestPortfolioRowsWellFormed(t *testing.T) {
	for _, r := range StrategyTable() {
		if r.Auto == 0 && (r.AutoFloor || r.EstMS != nil) {
			t.Errorf("row %s has portfolio fields but no place in it", r.Name)
		}
	}
	members := portfolioRows()
	for i, r := range members {
		if r.Auto != i+1 {
			t.Errorf("row %s claims place %d, want places 1..%d each once", r.Name, r.Auto, len(members))
		}
		if r.EstMS == nil {
			t.Errorf("portfolio row %s has no cost model", r.Name)
		}
		if r.AutoFloor && i > 0 && !members[i-1].AutoFloor {
			t.Errorf("floor row %s comes after a budgeted one", r.Name)
		}
		if r.Bind != nil {
			t.Errorf("portfolio row %s takes an argument", r.Name)
		}
	}
	if len(members) == 0 || !members[0].AutoFloor {
		t.Error("the portfolio has no floor: an auto job could produce no mapping")
	}
}

var backticked = regexp.MustCompile("`([^`]+)`")

// docNames returns the backticked words of the passage of file that starts
// at from and ends before to.
func docNames(t *testing.T, file, from, to string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), from)
	passage, _, ok2 := strings.Cut(rest, to)
	if !ok || !ok2 {
		t.Fatalf("%s: no passage from %q to %q", file, from, to)
	}
	var names []string
	for _, m := range backticked.FindAllStringSubmatch(passage, -1) {
		names = append(names, m[1])
	}
	return names
}

// TestDocsMatchTable: README's strategy, pattern and machine lists and
// DESIGN §13's portfolio order are the tables', in the tables' order.
func TestDocsMatchTable(t *testing.T) {
	for _, list := range []struct {
		from, to string
		want     []string
	}{
		{"Strategies accepted everywhere:", ".\n", StrategyNames()},
		{"Patterns accepted everywhere:", ".\n", PatternNames()},
		{"Machines accepted everywhere:", " —", TopologyNames()},
	} {
		if got := docNames(t, "../../README.md", list.from, list.to); !slices.Equal(got, list.want) {
			t.Errorf("README, %q\n %v\nthe table has\n %v", list.from, got, list.want)
		}
	}
	var want []string
	for _, r := range portfolioRows() {
		want = append(want, r.Name)
	}
	if got := docNames(t, "../../DESIGN.md", "runs a fixed candidate order —", "— and returns"); !slices.Equal(got, want) {
		t.Errorf("DESIGN §13 gives the portfolio as %v, the table as %v", got, want)
	}
}
