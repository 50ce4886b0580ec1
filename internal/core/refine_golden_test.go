package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// The probe stream of bench's session-stream workload, rebuilt from its
// parts: stencil9:64,64 at unit load on torus:16,16, placed in blocks,
// 120 batches of 32 load/comm drift deltas from seed 20060425, each batch
// refined on a clone (budget 64, 2 passes) and adopted when it moved
// tasks and its gain clears 0.002 of the hop-bytes before.
const (
	probeGrid, probeTorus = 64, 16
	probeBatches          = 120
	probeBatch            = 32
	probeSeed             = 20060425
	probeThreshold        = 0.002
)

var probeOpts = IncRefineOptions{MaxPasses: 2, MaxMigrations: 64}

// probeState builds the stream's initial state and the edge list its
// comm deltas draw from (ascending (from, to), from < to).
func probeState(tb testing.TB) (*IncrementalState, [][2]int) {
	tb.Helper()
	g := taskgraph.Stencil9(probeGrid, probeGrid, 1e5)
	b := taskgraph.NewBuilder(g.NumVertices())
	var edges [][2]int
	for v := 0; v < g.NumVertices(); v++ {
		b.SetVertexWeight(v, 1)
		adj, w := g.Neighbors(v)
		for k, u := range adj {
			if int(u) > v {
				b.AddEdge(v, int(u), w[k])
				edges = append(edges, [2]int{v, int(u)})
			}
		}
	}
	m := make(Mapping, g.NumVertices())
	for x := 0; x < probeGrid; x++ {
		for y := 0; y < probeGrid; y++ {
			m[x*probeGrid+y] = (x*probeTorus/probeGrid)*probeTorus + y*probeTorus/probeGrid
		}
	}
	s, err := NewIncrementalState(b.Build("probe"), topology.MustTorus(probeTorus, probeTorus), m)
	if err != nil {
		tb.Fatal(err)
	}
	return s, edges
}

// probeDrift applies one batch of the stream's drift: each delta
// re-measures one task's load or one edge's volume.
func probeDrift(tb testing.TB, s *IncrementalState, edges [][2]int, rng *rand.Rand) {
	tb.Helper()
	for k := 0; k < probeBatch; k++ {
		var err error
		if rng.Intn(2) == 0 {
			v := rng.Intn(s.NumSlots())
			err = s.SetLoad(v, 0.5+rng.Float64())
		} else {
			e := edges[rng.Intn(len(edges))]
			err = s.SetComm(e[0], e[1], 1e5*(0.25+3.75*rng.Float64()))
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// probeRemap is the session layer's remap step: refine a clone of st
// (built in spare when there is one) and adopt it when it moved tasks and
// its gain clears the threshold. It returns the state to carry on with
// and the one left over as the next spare.
func probeRemap(st, spare *IncrementalState) (next, left *IncrementalState, remapped bool, migrations int) {
	refined := st.CloneInto(spare)
	res := refined.RefineIncremental(probeOpts)
	gain := res.HopBytesBefore - res.HopBytesAfter
	if res.Migrations > 0 && gain-probeOpts.MigrationCost*float64(res.Migrations) > probeThreshold*res.HopBytesBefore {
		refined.SetAnchor()
		return refined, st, true, res.Migrations
	}
	return st, refined, false, 0
}

// TestProbeStreamGolden pins the engine against the commit before the
// clean-bit memo, the serial candidate scan and CloneInto: the hashes
// below were recorded there (PR 12, e554dfc), over every batch's
// (hop-bytes bits, remapped, migrations) and over the final mapping, and
// the treated/control ratio is the benchmark's hops_per_byte. The stream
// runs twice, on the cached distance matrix and on the topology's own
// Distance, which the delta kernels read through different code.
func TestProbeStreamGolden(t *testing.T) {
	t.Run("matrix", probeStreamGolden)
	t.Run("no-matrix", func(t *testing.T) {
		defer topology.SetDistanceMatrixCap(topology.SetDistanceMatrixCap(0))
		probeStreamGolden(t)
	})
}

func probeStreamGolden(t *testing.T) {
	const (
		wantBatches = 0x2d081c1fb6e50c3a
		wantMapping = 0x8c14a7fd210c59a4
		wantRatio   = 0.9226505956486932
	)
	treated, edges := probeState(t)
	control := treated.Clone()
	rngT := rand.New(rand.NewSource(probeSeed))
	rngC := rand.New(rand.NewSource(probeSeed))
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var spare *IncrementalState
	for b := 0; b < probeBatches; b++ {
		probeDrift(t, treated, edges, rngT)
		probeDrift(t, control, edges, rngC)
		var remapped bool
		var migrations int
		treated, spare, remapped, migrations = probeRemap(treated, spare)
		put(math.Float64bits(treated.HopBytes()))
		put(uint64(b2i(remapped)))
		put(uint64(migrations))
	}
	if got := h.Sum64(); got != wantBatches {
		t.Errorf("per-batch hash %#x, want %#x", got, uint64(wantBatches))
	}
	h.Reset()
	for _, p := range treated.Mapping() {
		put(uint64(p))
	}
	if got := h.Sum64(); got != wantMapping {
		t.Errorf("final mapping hash %#x, want %#x", got, uint64(wantMapping))
	}
	//lint:ignore floatcmp the ratio is pinned bit for bit
	if got := treated.HopBytes() / control.HopBytes(); got != wantRatio {
		t.Errorf("treated/control hop-bytes %v, want %v", got, wantRatio)
	}
}

// TestProbeStreamInPlace replays the probe stream the session layer's way
// — refine in place, SetAnchor on adoption, Revert otherwise — beside
// probeRemap's clone path, which TestProbeStreamGolden pins: every batch
// must read the same hop-bytes bits, adoption and migrations, and the
// final mappings must agree. The in-place side keeps the clean bits a
// dropped remap learned, so over the stream it scores fewer tasks.
func TestProbeStreamInPlace(t *testing.T) {
	cloned, edges := probeState(t)
	inPlace := cloned.Clone()
	rngC := rand.New(rand.NewSource(probeSeed))
	rngI := rand.New(rand.NewSource(probeSeed))
	var spare *IncrementalState
	var evalCloned, evalInPlace int64
	scored := func(f func()) int64 {
		c0 := IncrementalCounters()
		f()
		return IncrementalCounters().RefineEvaluated - c0.RefineEvaluated
	}
	for b := 0; b < probeBatches; b++ {
		probeDrift(t, cloned, edges, rngC)
		probeDrift(t, inPlace, edges, rngI)
		var remapped bool
		var migrations int
		evalCloned += scored(func() { cloned, spare, remapped, migrations = probeRemap(cloned, spare) })
		var res IncRefineResult
		evalInPlace += scored(func() { res = inPlace.RefineIncremental(probeOpts) })
		gain := res.HopBytesBefore - res.HopBytesAfter
		adopt := res.Migrations > 0 && gain-probeOpts.MigrationCost*float64(res.Migrations) > probeThreshold*res.HopBytesBefore
		if adopt {
			inPlace.SetAnchor()
		} else {
			inPlace.Revert()
			res.Migrations = 0
		}
		if math.Float64bits(inPlace.HopBytes()) != math.Float64bits(cloned.HopBytes()) ||
			adopt != remapped || res.Migrations != migrations {
			t.Fatalf("batch %d: in place {%v %t %d}, cloned {%v %t %d}", b,
				inPlace.HopBytes(), adopt, res.Migrations, cloned.HopBytes(), remapped, migrations)
		}
	}
	if fmt.Sprint(inPlace.Mapping()) != fmt.Sprint(cloned.Mapping()) {
		t.Error("final mappings differ")
	}
	if evalInPlace >= evalCloned {
		t.Errorf("in place scored %d tasks, cloned %d: the kept clean bits saved nothing", evalInPlace, evalCloned)
	}
	t.Logf("tasks scored per batch: cloned %.0f, in place %.0f",
		float64(evalCloned)/probeBatches, float64(evalInPlace)/probeBatches)
}
