package service

import (
	"sort"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
)

// The "auto" strategy portfolio. An auto job runs a fixed, ordered set of
// candidate strategies, keeps the mapping with the lowest hop-bytes, and
// reports what ran, what was skipped, and why. Admission is governed by a
// deterministic cost model, NOT by measured wall-clock: which candidates
// run is a pure function of the normalized job, so the response body stays
// byte-identical across GOMAXPROCS, load, and machines, and the result
// cache / singleflight layers remain sound. Measured timings exist too,
// but they only feed the /stats counters (never the response body).
//
// The floor candidates are the near-linear geometric tier; they always
// run, even when the budget is smaller than their estimate, so an auto job
// always produces a mapping. Every later candidate runs only if
// the portfolio's cumulative estimate stays within the job's budget; a
// candidate that does not fit is skipped and the next (possibly cheaper)
// one is still considered.

// portfolio is the auto candidates in admission order: the rows of the
// strategy table that name a place in it, by place. A row that needs a
// hierarchy is a candidate only on a hierarchical machine; it keeps its
// index here — the index of the /stats auto counters — either way.
var portfolio = func() []cliutil.StrategyRow {
	var rows []cliutil.StrategyRow
	for _, r := range cliutil.StrategyTable() {
		if r.Auto > 0 {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Auto < rows[b].Auto })
	return rows
}()

// AutoReport is the auto portfolio section of a JobResult.
type AutoReport struct {
	// Winner is the candidate whose mapping the result carries.
	Winner string `json:"winner"`
	// BudgetMS is the resolved portfolio budget (explicit or derived).
	BudgetMS int `json:"budget_ms"`
	// Strategies lists every candidate in portfolio order.
	Strategies []AutoStrategy `json:"strategies"`
}

// AutoStrategy is one candidate's outcome inside an AutoReport.
//
//lint:ignore jsoncontract float fields are cost-model estimates and hop-bytes, deterministic for identical inputs; wire bytes pinned by cache equality and the auto determinism tests
type AutoStrategy struct {
	Strategy string `json:"strategy"`
	// EstMS is the deterministic cost-model estimate that governed
	// admission. Measured wall-clock is deliberately absent from the
	// response (it would break byte-determinism); see /stats.
	EstMS float64 `json:"est_ms"`
	// HopBytes is the candidate's mapping quality (present when it ran).
	HopBytes float64 `json:"hop_bytes,omitempty"`
	// Skipped marks a candidate the budget excluded.
	Skipped bool `json:"skipped,omitempty"`
	// Error carries a candidate's failure; the portfolio continues.
	Error string `json:"error,omitempty"`
}

// defaultAutoBudgetMS derives the budget for jobs that do not set
// auto_budget_ms: twice the job's full portfolio estimate (including the
// hier candidate only on hierarchical topologies), clamped to
// [50ms, 10s]. Small and medium jobs therefore run every candidate by
// default; very large jobs shed the expensive tail unless the client
// raises the budget explicitly.
func defaultAutoBudgetMS(n, m, p int, hier bool) int {
	est := 0.0
	for _, c := range portfolio {
		if hier || !c.NeedsHierarchy {
			est += c.EstMS(n, m, p)
		}
	}
	b := int(2*est) + 1
	if b < 50 {
		b = 50
	}
	if b > 10000 {
		b = 10000
	}
	return b
}

// computeAuto runs the portfolio and returns the winning mapping, filling
// res.Strategy, res.Auto, and (for partitioned jobs) the winner's
// partition quality. Candidate errors are recorded and survived; only a
// portfolio with zero successful candidates fails.
func (j *job) computeAuto(res *JobResult) ([]int, error) {
	n, m, p := j.graph.NumVertices(), j.graph.NumEdges(), j.mapTopo.Nodes()
	budget := float64(j.spec.AutoBudgetMS)
	report := &AutoReport{BudgetMS: j.spec.AutoBudgetMS}

	type outcome struct {
		mapping  []int
		edgeCut  float64
		imbal    float64
		hopBytes float64
	}
	var best *outcome
	bestIdx := -1
	spent := 0.0
	var portfolioNs int64
	for i, c := range portfolio {
		if c.NeedsHierarchy && j.hier == nil {
			continue
		}
		est := c.EstMS(n, m, p)
		entry := AutoStrategy{Strategy: c.Name, EstMS: est}
		if !c.AutoFloor && spent+est > budget {
			entry.Skipped = true
			report.Strategies = append(report.Strategies, entry)
			if j.stats != nil {
				j.stats.auto[i].skips.Add(1)
			}
			continue
		}
		spent += est
		// Built exactly as a direct job naming this strategy builds it.
		strat := c.New(j.spec.Seed, j.coords)
		//lint:ignore seededrand wall-clock here feeds only the /stats counters; admission and the response body depend solely on the deterministic cost model
		start := time.Now()
		var sub JobResult
		mapping, err := j.runStrategy(strat, &sub)
		//lint:ignore seededrand wall-clock here feeds only the /stats counters; admission and the response body depend solely on the deterministic cost model
		elapsed := time.Since(start)
		portfolioNs += int64(elapsed)
		if j.stats != nil {
			j.stats.auto[i].runs.Add(1)
			j.stats.auto[i].ns.Add(int64(elapsed))
		}
		if err != nil {
			entry.Error = err.Error()
			report.Strategies = append(report.Strategies, entry)
			continue
		}
		o := &outcome{mapping: mapping, edgeCut: sub.EdgeCut, imbal: sub.Imbalance,
			hopBytes: core.HopBytes(j.graph, j.topo, mapping)}
		entry.HopBytes = o.hopBytes
		report.Strategies = append(report.Strategies, entry)
		// Strictly-lower hop-bytes wins; ties keep the earlier candidate.
		if best == nil || o.hopBytes < best.hopBytes {
			best, bestIdx = o, i
		}
	}
	if best == nil {
		return nil, badJob(422, "job: auto: every portfolio candidate failed")
	}
	report.Winner = portfolio[bestIdx].Name
	res.Strategy = "auto"
	res.Auto = report
	res.EdgeCut = best.edgeCut
	res.Imbalance = best.imbal
	if j.stats != nil {
		j.stats.autoComputed.Add(1)
		j.stats.auto[bestIdx].wins.Add(1)
		// CAS-max: record the slowest portfolio this server has run, so
		// operators can compare it against configured budgets.
		for {
			cur := j.stats.autoMaxPortfolioNs.Load()
			if portfolioNs <= cur || j.stats.autoMaxPortfolioNs.CompareAndSwap(cur, portfolioNs) {
				break
			}
		}
	}
	return best.mapping, nil
}
