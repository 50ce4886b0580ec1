package experiments

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// sweepJobs builds a small but non-trivial sweep: the §5.3 scenario's
// three mappings at three bandwidths, 30 iterations each.
func sweepJobs(t *testing.T) []SimJob {
	t.Helper()
	s, err := newNetsimSetup()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s.jobs([]float64{1e8, 3e8, 8e8}, 30)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// resultBits flattens a Result's float fields to raw bits so equality is
// exact, not within-epsilon.
func resultBits(r trace.Result) [10]uint64 {
	return [10]uint64{
		math.Float64bits(r.CompletionTime),
		uint64(r.Net.MessagesSent),
		uint64(r.Net.MessagesDelivered),
		math.Float64bits(r.Net.BytesSent),
		math.Float64bits(r.Net.AvgLatency),
		math.Float64bits(r.Net.MaxLatency),
		math.Float64bits(r.Net.MaxLinkBusy),
		math.Float64bits(r.Net.AvgLinkBusy),
		math.Float64bits(r.Net.P50),
		math.Float64bits(r.Net.P95),
	}
}

// TestRunSimsGOMAXPROCSIndependent pins the sweep determinism contract:
// the full result vector is bit-identical whether the jobs run serially
// or fanned across many workers.
func TestRunSimsGOMAXPROCSIndependent(t *testing.T) {
	jobs := sweepJobs(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runtime.GOMAXPROCS(1)
	serial, err := RunSims(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		par, err := RunSims(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("GOMAXPROCS=%d: %d results, want %d", procs, len(par), len(serial))
		}
		for i := range serial {
			if resultBits(par[i]) != resultBits(serial[i]) {
				t.Errorf("GOMAXPROCS=%d: job %d diverged: %+v vs %+v",
					procs, i, par[i], serial[i])
			}
		}
	}
}

// TestRunSimsEngineReuseStress hammers the engine pool: many rounds of
// the same sweep must agree bit-for-bit, regardless of which pooled
// engine (with whatever warm storage) each job lands on. Run with -race
// this also checks the fan-out shares nothing it shouldn't.
func TestRunSimsEngineReuseStress(t *testing.T) {
	jobs := sweepJobs(t)
	first, err := RunSims(jobs)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		got, err := RunSims(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if resultBits(got[i]) != resultBits(first[i]) {
				t.Fatalf("round %d job %d: %+v, want %+v", round, i, got[i], first[i])
			}
		}
	}
}

// TestRunSimsReportsLowestFailingJob checks the deterministic error
// contract: with several invalid jobs, the lowest-indexed one's error
// surfaces no matter the execution order.
func TestRunSimsReportsLowestFailingJob(t *testing.T) {
	jobs := sweepJobs(t)
	bad := jobs[1]
	bad.Cfg.LinkBandwidth = -1 // rejected by Config validation
	jobs[1] = bad
	bad2 := jobs[4]
	bad2.Cfg.LinkLatency = math.NaN() // different field, so the winner is observable
	jobs[4] = bad2

	_, err := RunSims(jobs)
	if err == nil {
		t.Fatal("RunSims accepted invalid configs")
	}
	var cerr *netsim.ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "LinkBandwidth" {
		t.Fatalf("err = %v, want ConfigError for LinkBandwidth", err)
	}
}

// TestNetsimTableUsesSweep smoke-checks the rewired fig7 path end to end
// in quick mode: rows present, bandwidth column ascending, all latencies
// positive and finite.
func TestNetsimTableUsesSweep(t *testing.T) {
	tbl, err := Fig7(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("fig7 produced no rows")
	}
	prev := math.Inf(-1)
	for _, row := range tbl.Rows {
		if len(row) != 4 {
			t.Fatalf("row has %d columns, want 4", len(row))
		}
		if row[0] <= prev {
			t.Fatalf("bandwidth column not ascending: %v", tbl.Rows)
		}
		prev = row[0]
		for _, v := range row[1:] {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("non-positive or infinite latency %v in row %v", v, row)
			}
		}
	}

	// A torus link sees traffic from multiple chares, so congestion must
	// make the low-bandwidth latencies strictly worse than the highest's.
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if first[1] <= last[1] {
		t.Errorf("random placement latency did not decrease with bandwidth: %v -> %v", first[1], last[1])
	}
}

// TestReplayOnMatchesReplay checks engine reuse is invisible: a fresh
// Replay and a ReplayOn against a dirty, reused engine agree exactly.
func TestReplayOnMatchesReplay(t *testing.T) {
	s, err := newNetsimSetup()
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.FromTaskGraph(s.g, 25, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{
		Topology:      topology.MustTorus(4, 4, 4),
		LinkBandwidth: 2e8,
		LinkLatency:   100e-9,
		PacketSize:    1024,
	}
	want, err := trace.Replay(p, s.mappings[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := &netsim.Engine{}
	for round := 0; round < 3; round++ {
		got, err := trace.ReplayOn(eng, p, s.mappings[1], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resultBits(got) != resultBits(want) {
			t.Fatalf("round %d: reused engine diverged: %+v, want %+v", round, got, want)
		}
	}
}
