package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// autoJob is the standard auto workload: a partitioned stencil with
// geometry, so every portfolio candidate is exercised (geometric tier
// with real coordinates, quotient mappers, multilevel).
func autoJob() Job {
	return Job{Graph: GraphSpec{Pattern: "stencil9:16,16", MsgBytes: 1e5, Seed: 1},
		Topology: "torus:4,4", Strategy: "auto", Seed: 1}
}

// wirePortfolio and wireFloor are the portfolio as clients see it — the
// order of auto.strategies and of the /stats auto counters, and how many
// leading candidates run whatever the budget — recorded before the
// portfolio was read off the strategy table. A table edit that moves them
// moves response bodies.
var wirePortfolio = []string{"sfc", "rcb-sfc", "topocentlb", "topolb", "multilevel", "hier"}

const wireFloor = 2

// TestAutoPortfolioPinned holds the table-derived portfolio to the wire:
// names and order as /stats prints them, floor candidates first, a cost
// model on every row, and est_ms to the bit at three job sizes (values of
// the name switch the table replaced).
func TestAutoPortfolioPinned(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	stats := srv.Snapshot().Auto.Strategies
	if len(stats) != len(wirePortfolio) || len(portfolio) != len(wirePortfolio) {
		t.Fatalf("/stats lists %d candidates, portfolio has %d, want %d", len(stats), len(portfolio), len(wirePortfolio))
	}
	sizes := [][3]int{{256, 480, 256}, {4096, 16128, 64}, {65536, 261120, 1024}}
	wantBits := [][]uint64{
		{0x3fb19538d2ea2532, 0x3fdff65b2e3623c4, 0x402a36e2eb1c432d, 0x40606540bcfb94d3, 0x402aebe49719abfe, 0x400c4842df9860b8},
		{0x3ffb76e11c364051, 0x40223ebb5fdd6521, 0x4029ff6784f5082e, 0x403258b6ee564ebe, 0x402ec30649a5d417, 0x405244fb00b272fb},
		{0x4041afe3458b4149, 0x4073e88c9e7c664d, 0x4080c3566cb2fe55, 0x40a70905b559ef3a, 0x40805a717112ee64, 0x409ea0d915c3c89d},
	}
	wantBudget := [][2]int{{317, 324}, {116, 262}, {8725, 10000}} // flat, hierarchical
	for i, c := range portfolio {
		if c.Name != wirePortfolio[i] || stats[i].Strategy != wirePortfolio[i] {
			t.Errorf("candidate %d: portfolio %q, /stats %q, want %q", i, c.Name, stats[i].Strategy, wirePortfolio[i])
		}
		if c.AutoFloor != (i < wireFloor) {
			t.Errorf("candidate %s: floor = %v at index %d, want the first %d on the floor", c.Name, c.AutoFloor, i, wireFloor)
		}
		if c.NeedsHierarchy != (c.Name == "hier") {
			t.Errorf("candidate %s: needs hierarchy = %v", c.Name, c.NeedsHierarchy)
		}
		if c.EstMS == nil {
			t.Errorf("candidate %s has no cost model", c.Name)
			continue
		}
		for k, sz := range sizes {
			if got := math.Float64bits(c.EstMS(sz[0], sz[1], sz[2])); got != wantBits[k][i] {
				t.Errorf("est_ms(%s, %v) = %#x, want %#x", c.Name, sz, got, wantBits[k][i])
			}
		}
	}
	for k, sz := range sizes {
		if flat, hier := defaultAutoBudgetMS(sz[0], sz[1], sz[2], false), defaultAutoBudgetMS(sz[0], sz[1], sz[2], true); flat != wantBudget[k][0] || hier != wantBudget[k][1] {
			t.Errorf("default budget at %v = %d flat, %d hierarchical, want %v", sz, flat, hier, wantBudget[k])
		}
	}
}

func TestAutoValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Job
	}{
		{"refine with auto", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"},
			Topology: "torus:4,4", Strategy: "auto", Refine: true}},
		{"budget without auto", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"},
			Topology: "torus:4,4", Strategy: "topolb", AutoBudgetMS: 100}},
		{"negative budget", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"},
			Topology: "torus:4,4", Strategy: "auto", AutoBudgetMS: -1}},
	}
	for _, tc := range cases {
		_, err := name(tc.spec, 0)
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if status := errStatus(err); status != 400 {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
}

// TestAutoWinnerIsBestHopBytes pins the selection rule: the result carries
// the strictly-lowest hop-bytes mapping among the candidates that ran,
// the report lists every candidate in portfolio order, and the resolved
// default budget is recorded.
func TestAutoWinnerIsBestHopBytes(t *testing.T) {
	j := mustBuild(t, autoJob())
	res, err := j.compute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "auto" || res.Auto == nil {
		t.Fatalf("strategy %q, auto report %v", res.Strategy, res.Auto)
	}
	rep := res.Auto
	if rep.BudgetMS <= 0 {
		t.Errorf("budget_ms = %d, want resolved default > 0", rep.BudgetMS)
	}
	flat := wirePortfolio[:len(wirePortfolio)-1] // hier sits out a flat machine
	if len(rep.Strategies) != len(flat) {
		t.Fatalf("%d strategy entries, want %d", len(rep.Strategies), len(flat))
	}
	best := ""
	bestHB := 0.0
	for i, e := range rep.Strategies {
		if e.Strategy != flat[i] {
			t.Errorf("entry %d is %q, want %q (portfolio order)", i, e.Strategy, flat[i])
		}
		if e.Skipped || e.Error != "" {
			t.Errorf("entry %s: skipped=%v err=%q; the default budget must admit the full portfolio on this job", e.Strategy, e.Skipped, e.Error)
			continue
		}
		if best == "" || e.HopBytes < bestHB {
			best, bestHB = e.Strategy, e.HopBytes
		}
	}
	if rep.Winner != best {
		t.Errorf("winner %q, want %q (min hop-bytes)", rep.Winner, best)
	}
	if res.HopBytes != bestHB {
		t.Errorf("result hop-bytes %v != winner's %v", res.HopBytes, bestHB)
	}
}

// TestAutoWinnerMatchesDirectJob pins auto to the library: the winning
// mapping must be byte-identical to what a direct job with the winning
// strategy produces.
func TestAutoWinnerMatchesDirectJob(t *testing.T) {
	j := mustBuild(t, autoJob())
	res, err := j.compute()
	if err != nil {
		t.Fatal(err)
	}
	direct := autoJob()
	direct.Strategy = res.Auto.Winner
	dres, err := mustBuild(t, direct).compute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != len(dres.Mapping) {
		t.Fatalf("mapping lengths differ: %d vs %d", len(res.Mapping), len(dres.Mapping))
	}
	for v := range res.Mapping {
		if res.Mapping[v] != dres.Mapping[v] {
			t.Fatalf("auto mapping diverges from direct %s at task %d", res.Auto.Winner, v)
		}
	}
	if res.HopBytes != dres.HopBytes || res.EdgeCut != dres.EdgeCut || res.Imbalance != dres.Imbalance {
		t.Error("auto result metrics diverge from the direct job")
	}
}

// TestAutoBudgetGating pins admission: with a 1ms budget only the
// geometric floor runs (it always runs); every later candidate is
// skipped, and /stats counts the skips.
func TestAutoBudgetGating(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Large enough that every non-floor candidate's estimate exceeds 1ms.
	spec := Job{Graph: GraphSpec{Pattern: "stencil9:64,64", MsgBytes: 1e5, Seed: 1},
		Topology: "torus:4,4", Strategy: "auto", Seed: 1, AutoBudgetMS: 1}
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Auto.BudgetMS != 1 {
		t.Errorf("budget_ms = %d, want the explicit 1", res.Auto.BudgetMS)
	}
	for i, e := range res.Auto.Strategies {
		if i < wireFloor && e.Skipped {
			t.Errorf("floor candidate %s skipped; the floor must always run", e.Strategy)
		}
		if i >= wireFloor && !e.Skipped {
			t.Errorf("candidate %s ran under a 1ms budget (est %v ms)", e.Strategy, e.EstMS)
		}
	}
	if w := res.Auto.Winner; w != "sfc" && w != "rcb-sfc" {
		t.Errorf("winner %q, want a floor candidate", w)
	}
	st := srv.Snapshot()
	skips := int64(0)
	for _, e := range st.Auto.Strategies {
		skips += e.BudgetSkips
	}
	if want := int64(len(res.Auto.Strategies) - wireFloor); skips != want {
		t.Errorf("budget skips = %d, want %d", skips, want)
	}
}

// TestAutoDeterministicAndCached pins the service contract for auto jobs:
// identical responses at every GOMAXPROCS and client concurrency, exactly
// one computation per server thanks to cache + singleflight, and live
// /stats portfolio counters.
func TestAutoDeterministicAndCached(t *testing.T) {
	refRes, err := mustBuild(t, autoJob()).compute()
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeResult(refRes)
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			srv := NewServer(Config{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			const conc = 8
			var wg sync.WaitGroup
			errs := make(chan string, conc*2)
			for c := 0; c < conc; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 2; rep++ {
						status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", autoJob())
						if status != 200 {
							errs <- fmt.Sprintf("status %d: %s", status, body)
							return
						}
						if !bytes.Equal(body, want) {
							errs <- fmt.Sprintf("auto body diverges:\n got %s\nwant %s", body, want)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}

			st := srv.Snapshot()
			if st.Auto.JobsComputed != 1 {
				t.Errorf("auto jobs computed = %d, want 1 (cache + coalescing)", st.Auto.JobsComputed)
			}
			if st.Auto.MaxPortfolioNs <= 0 {
				t.Error("max_portfolio_ns not recorded")
			}
			wins := int64(0)
			for _, e := range st.Auto.Strategies {
				wantRuns := int64(1)
				if e.Strategy == "hier" {
					// The hier candidate is only admitted on hierarchical
					// topologies; this job's machine is flat.
					wantRuns = 0
				}
				if e.Runs != wantRuns {
					t.Errorf("%s runs = %d, want %d", e.Strategy, e.Runs, wantRuns)
				}
				if e.Runs > 0 && e.TotalNs <= 0 {
					t.Errorf("%s ran but total_ns = %d", e.Strategy, e.TotalNs)
				}
				wins += e.Wins
			}
			if wins != 1 {
				t.Errorf("total wins = %d, want 1", wins)
			}
		})
	}
}

// TestAutoCacheHitOnRepeat pins the repeat path explicitly: the second
// identical auto request is served from the result cache byte-for-byte
// without recomputing the portfolio.
func TestAutoCacheHitOnRepeat(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := postJSON(t, ts.Client(), ts.URL+"/v1/map", autoJob())
	before := srv.Snapshot()
	_, second := postJSON(t, ts.Client(), ts.URL+"/v1/map", autoJob())
	after := srv.Snapshot()
	if !bytes.Equal(first, second) {
		t.Error("repeated auto job returned different bytes")
	}
	if after.ResultCache.Hits != before.ResultCache.Hits+1 {
		t.Errorf("cache hits went %d -> %d, want +1", before.ResultCache.Hits, after.ResultCache.Hits)
	}
	if after.Auto.JobsComputed != before.Auto.JobsComputed {
		t.Error("cache hit recomputed the portfolio")
	}
}

// TestAutoDefaultBudgetSharesCacheKey pins budget resolution order: an
// explicit budget equal to the derived default hashes to the same content
// key, while a different explicit budget does not.
func TestAutoDefaultBudgetSharesCacheKey(t *testing.T) {
	j, err := name(autoJob(), 0)
	if err != nil {
		t.Fatal(err)
	}
	explicit := autoJob()
	explicit.AutoBudgetMS = j.spec.AutoBudgetMS
	je, err := name(explicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.key != je.key {
		t.Error("explicit budget equal to the default must share the cache key")
	}
	other := autoJob()
	other.AutoBudgetMS = j.spec.AutoBudgetMS + 1
	jo, err := name(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.key == jo.key {
		t.Error("different budgets must not share a cache key")
	}
}
