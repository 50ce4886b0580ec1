package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/partition"
)

// StrategyRow is everything the repository records about one mapping
// strategy. The tools' -strategy vocabulary, topomapd's strategy field,
// its auto portfolio and the property tests all read strategyTable; a new
// strategy is one new row. What the built value can tell by itself — that
// it is a core.Placer, that it reads coordinates — is not repeated here.
type StrategyRow struct {
	// Name is the wire name. A row with Bind is listed as "kind:USAGE" and
	// written "kind:ARG" on the wire.
	Name string
	// New builds the strategy: seed drives a randomized one, coords are the
	// pattern's task positions (nil when it has none). Using either is the
	// constructor's business.
	New func(seed int64, coords [][]float64) core.Strategy
	// Bind, on a "kind:USAGE" row, parses ARG into that instance's New.
	Bind func(arg string) (func(seed int64, coords [][]float64) core.Strategy, error)
	// NeedsHierarchy marks a strategy that refuses flat machines.
	NeedsHierarchy bool
	// Auto is the row's place in topomapd's auto portfolio, counted from 1;
	// 0 keeps it out. Places are the wire order of auto.strategies and of
	// the /stats auto counters: append only.
	Auto int
	// AutoFloor marks a portfolio member that runs whatever the budget, so
	// an auto job always produces a mapping. Floor rows come first.
	AutoFloor bool
	// EstMS is a portfolio member's cost model: a deterministic estimate in
	// milliseconds for n tasks, m edges and p processors. Admission, and so
	// the response body, depends on it to the bit.
	EstMS func(n, m, p int) float64
}

// plain is the New of a strategy that takes neither seed nor coordinates.
func plain(s core.Strategy) func(int64, [][]float64) core.Strategy {
	return func(int64, [][]float64) core.Strategy { return s }
}

// strategyTable order is the order of StrategyNames and of the
// unknown-strategy message.
var strategyTable = []StrategyRow{
	{Name: "topolb", New: plain(core.TopoLB{}), Auto: 4, EstMS: estTopoLB},
	{Name: "topolb1", New: plain(core.TopoLB{Order: core.OrderFirst})},
	{Name: "topolb3", New: plain(core.TopoLB{Order: core.OrderThird})},
	{Name: "topocentlb", New: plain(core.TopoCentLB{}), Auto: 3, EstMS: estTopoCentLB},
	{Name: "multilevel", New: plain(core.MultilevelMap{}), Auto: 5, EstMS: estMultilevel},
	{Name: "hier", NeedsHierarchy: true, Auto: 6, EstMS: estHier,
		New: func(seed int64, c [][]float64) core.Strategy { return core.HierMap{Seed: seed, Coords: c} }},
	// Without coordinates the two geometric strategies fall back to a
	// graph-BFS order.
	{Name: "sfc", Auto: 1, AutoFloor: true, EstMS: estSFC,
		New: func(_ int64, c [][]float64) core.Strategy { return core.SFC{Coords: c} }},
	{Name: "rcb-sfc", Auto: 2, AutoFloor: true, EstMS: estRCBSFC,
		New: func(_ int64, c [][]float64) core.Strategy { return core.RCBSFC{Coords: c} }},
	{Name: "random", New: func(seed int64, _ [][]float64) core.Strategy { return core.Random{Seed: seed} }},
	{Name: "identity", New: plain(core.Identity{})},
	{Name: "annealing", New: func(seed int64, _ [][]float64) core.Strategy { return baselines.Annealing{Seed: seed} }},
	// The block shape is spelled with "x" so a hybrid spec survives a
	// comma-separated strategy list.
	{Name: "hybrid:BXxBY[x...]", Bind: bindHybrid},
}

func bindHybrid(arg string) (func(int64, [][]float64) core.Strategy, error) {
	var block []int
	for _, part := range strings.Split(arg, "x") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad hybrid block %q (want e.g. hybrid:4x4)", arg)
		}
		block = append(block, v)
	}
	return func(seed int64, _ [][]float64) core.Strategy { return hybrid.Hybrid{Block: block, Seed: seed} }, nil
}

// The portfolio cost models. Constants were calibrated against per-strategy
// placement times on the reference container (today: topobench lib-scale's
// core.*_ms layers and the geometric and hier rows of internal/benchtab)
// and err on the high side, so budget overruns stay bounded by model error
// rather than unbounded.

func log2p1(x int) float64 { return math.Log2(float64(x) + 1) }

// estPartition is the multilevel partition phase every quotient-mapped
// candidate pays when tasks outnumber processors.
func estPartition(n, m, p int) float64 {
	if n <= p {
		return 0
	}
	return (float64(n) + float64(m)) * log2p1(p) * 1e-4
}

func estSFC(n, m, p int) float64 {
	return float64(n)*log2p1(n)*3e-5 + float64(m)*1.5e-5
}

func estRCBSFC(n, m, p int) float64 {
	return float64(n)*log2p1(n)*log2p1(p)*3e-5 + float64(m)*1.5e-5
}

func estTopoCentLB(n, m, p int) float64 {
	return estPartition(n, m, p) + float64(p)*float64(p)*2e-4
}

func estTopoLB(n, m, p int) float64 {
	return estPartition(n, m, p) + float64(p)*float64(p)*log2p1(p)*2.5e-4
}

func estMultilevel(n, m, p int) float64 {
	return (float64(n)+float64(m))*log2p1(n)*6e-5 + float64(p)*float64(p)*2e-4
}

// estHier is dominated by the per-level capacity partitions with their
// low-coarsening top splits.
func estHier(n, m, p int) float64 {
	return (float64(n) + float64(m)) * log2p1(p) * 6e-4
}

// StrategyTable returns the rows in listing order. The slice is shared:
// read it, do not write it.
func StrategyTable() []StrategyRow { return strategyTable }

// StrategyNames lists the names ParseStrategy accepts.
func StrategyNames() []string {
	names := make([]string, len(strategyTable))
	for i, r := range strategyTable {
		names[i] = r.Name
	}
	return names
}

// FindStrategy resolves a wire name to its row; for a "kind:ARG" name the
// row comes back with New bound to ARG.
func FindStrategy(name string) (StrategyRow, error) {
	kind, arg, hasArg := strings.Cut(name, ":")
	for _, r := range strategyTable {
		if r.Bind == nil {
			if r.Name == name {
				return r, nil
			}
			continue
		}
		if rowKind, _, _ := strings.Cut(r.Name, ":"); hasArg && rowKind == kind {
			bound, err := r.Bind(arg)
			if err != nil {
				return StrategyRow{}, err
			}
			r.New = bound
			return r, nil
		}
	}
	return StrategyRow{}, fmt.Errorf("cliutil: unknown strategy %q (known: %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// ParseStrategy resolves a strategy name (see StrategyNames) to a strategy
// without coordinates; WithCoords adds them where the caller knows the
// pattern's geometry.
func ParseStrategy(name string, seed int64) (core.Strategy, error) {
	r, err := FindStrategy(name)
	if err != nil {
		return nil, err
	}
	return r.New(seed, nil), nil
}

// ParseStrategies resolves a comma-separated strategy list.
func ParseStrategies(list string, seed int64) ([]core.Strategy, error) {
	var out []core.Strategy
	for _, name := range strings.Split(list, ",") {
		s, err := ParseStrategy(strings.TrimSpace(name), seed)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// WithCoords injects task coordinates into a strategy that takes them;
// every other strategy passes through unchanged. nil coords are a no-op,
// preserving the BFS fallback.
func WithCoords(s core.Strategy, coords [][]float64) core.Strategy {
	if c, ok := s.(interface {
		WithCoords([][]float64) core.Strategy
	}); ok && coords != nil {
		return c.WithCoords(coords)
	}
	return s
}

// ParsePartitioner resolves the -partition flag of the tools: multilevel
// (seeded) or greedy.
func ParsePartitioner(name string, seed int64) (partition.Partitioner, error) {
	switch name {
	case "multilevel":
		return partition.Multilevel{Seed: seed}, nil
	case "greedy":
		return partition.Greedy{}, nil
	}
	return nil, fmt.Errorf("unknown partitioner %q", name)
}
