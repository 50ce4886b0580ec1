package benchtab

// Suites "multilevel", "geometric" and "hier": whole-placement rows, each
// against a reference placer on the same (pattern, machine) point, with
// the hop-bytes of both sides as exact columns — the ratio is the quality
// the faster tier pays or gains. Size points that are jobs of topobench's
// lib-scale workload are not repeated here (core.multilevelmap_ms,
// core.sfc_ms, core.rcbsfc_ms, core.hiermap_ms time them); what stays is
// the comparison against a reference, the million-task headline no
// lib-scale job reaches, phase one (partition.Multilevel) alone on the
// jobs svc-cold partitions, the curve codecs, and `auto` over HTTP.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/sfc"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// placeCase is one (pattern, machine) size point in the CLI vocabulary.
type placeCase struct{ pattern, machine string }

func (c placeCase) name() string { return c.pattern + "/" + c.machine }

// placer computes a placement; coords are the pattern's task coordinates
// (nil when it has none), for the placers that take them.
type placer func(g *taskgraph.Graph, t topology.Topology, coords [][]float64) ([]int, error)

func multilevel(g *taskgraph.Graph, t topology.Topology, _ [][]float64) ([]int, error) {
	return core.MultilevelMap{}.Place(g, t)
}

// flat is the two-phase pipeline: partition.Multilevel, then TopoLB on
// the quotient graph, distance matrix allowed.
func flat(g *taskgraph.Graph, t topology.Topology, _ [][]float64) ([]int, error) {
	res, err := core.MapTasks(g, t, partition.Multilevel{Seed: 1}, core.TopoLB{})
	if err != nil {
		return nil, err
	}
	return res.Placement, nil
}

func sfcGeo(g *taskgraph.Graph, t topology.Topology, coords [][]float64) ([]int, error) {
	return core.SFC{Coords: coords}.Place(g, t)
}

func rcbSFCGeo(g *taskgraph.Graph, t topology.Topology, coords [][]float64) ([]int, error) {
	return core.RCBSFC{Coords: coords}.Place(g, t)
}

func hier(g *taskgraph.Graph, t topology.Topology, _ [][]float64) ([]int, error) {
	return core.HierMap{}.Place(g, t)
}

func hierGeo(g *taskgraph.Graph, t topology.Topology, coords [][]float64) ([]int, error) {
	return core.HierMap{Coords: coords}.Place(g, t)
}

// operands builds the case's graph, machine and coordinates, and the
// machine's distance matrix where one fits under the cap, so that no
// measured op pays for it.
func (c placeCase) operands(b *testing.B) (*taskgraph.Graph, topology.Topology, [][]float64) {
	g, err := cliutil.ParsePattern(c.pattern, 1e5, 1)
	if err != nil {
		b.Fatal(err)
	}
	t, err := cliutil.ParseAnyTopology(c.machine)
	if err != nil {
		b.Fatal(err)
	}
	topology.CachedDistances(t)
	return g, t, cliutil.PatternCoords(c.pattern, 1)
}

func (c placeCase) bench(p placer) func(*testing.B) {
	return func(b *testing.B) {
		g, t, coords := c.operands(b)
		// One untimed call first. What a call builds lazily on these
		// operands (a hierarchy's neighbour lists) would otherwise count in
		// allocs/op whenever a row slow enough to be timed at one iteration
		// runs, and whether it is depends on the machine.
		placement, err := p(g, t, coords)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if placement, err = p(g, t, coords); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(core.HopBytes(g, t, placement), "hop-bytes")
	}
}

// partitionRow measures phase one alone — partition.Multilevel on the
// pattern, into k groups — for the jobs svc-cold partitions, where it is
// the larger share of a request. Its exact column is allocs/op.
func partitionRow(name, pattern string, k int, smoke bool) Row {
	return Row{Suite: "multilevel", Name: "partition/Multilevel/" + name, Smoke: smoke, Run: func(b *testing.B) {
		g, err := cliutil.ParsePattern(pattern, 1e5, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := (partition.Multilevel{Seed: 1}).Partition(g, k); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

func multilevelRows() []Row {
	row := func(smoke bool, c placeCase) Row {
		return Row{Suite: "multilevel", Name: c.name(), Smoke: smoke, Run: c.bench(multilevel), Ref: c.bench(flat), RefName: "flat"}
	}
	// p = 65536: the flat pipeline would need a 65536² distance matrix, two
	// orders of magnitude over the cap, so the headline has no reference.
	million := placeCase{"stencil9:1024,1024", "torus:64,32,32"}
	return []Row{
		row(true, placeCase{"stencil9:64,64", "torus:16,16"}),
		row(false, placeCase{"stencil9:128,128", "torus:32,16"}),
		row(false, placeCase{"stencil9:256,256", "torus:32,32"}),
		{Suite: "multilevel", Name: million.name(), Run: million.bench(multilevel)},
		partitionRow("stencil9-64x64,k=256", "stencil9:64,64", 256, true),
		partitionRow("stencil9-128x128,k=512", "stencil9:128,128", 512, false),
		partitionRow("leanmd-256", "leanmd:256", 256, false),
	}
}

// encodeRow measures one curve codec over a 4096-point batch, so ns/op is
// the amortized per-point cost (the codec plus one indirect call) × 4096.
func encodeRow(name string, smoke bool, one func(v uint32) uint64) Row {
	return Row{Suite: "geometric", Name: "encode/" + name, Smoke: smoke, Run: func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			for v := uint32(0); v < 4096; v++ {
				sink += one(v)
			}
		}
		_ = sink
	}}
}

// autoBench drives topomapd's auto portfolio end to end over HTTP: every
// op posts the job with a fresh job seed, so it misses the result cache
// and pays a full portfolio computation plus encoding. The hop-bytes
// column is the seed-1 response's.
func (c placeCase) autoBench(b *testing.B) {
	srv := service.NewServer(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(seed int64) (hopBytes float64) {
		payload, err := json.Marshal(service.Job{
			Graph:    service.GraphSpec{Pattern: c.pattern, MsgBytes: 1e5, Seed: 1},
			Topology: c.machine,
			Strategy: "auto",
			Seed:     seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var res struct {
			HopBytes float64 `json:"hop_bytes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != 200 {
			b.Fatalf("auto %s: status %d, decode: %v", c.name(), resp.StatusCode, err)
		}
		return res.HopBytes
	}
	hb := post(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(int64(i) + 2)
	}
	b.ReportMetric(hb, "hop-bytes")
}

func geometricRows() []Row {
	const order2, order3 = 16, 12
	rows := []Row{
		encodeRow("morton2", true, func(v uint32) uint64 { return sfc.MortonEncode2(v, v^0x2a) }),
		encodeRow("morton3", false, func(v uint32) uint64 { return sfc.MortonEncode3(v, v^0x2a, v^0x155) }),
		encodeRow("hilbert2", false, func(v uint32) uint64 { return sfc.HilbertEncode2(order2, v, v^0x2a) }),
		encodeRow("hilbert3", true, func(v uint32) uint64 { return sfc.HilbertEncode3(order3, v, v^0x2a, v^0x155) }),
		encodeRow("hilbert2-roundtrip", false, func(v uint32) uint64 {
			x, y := sfc.HilbertDecode2(order2, sfc.HilbertEncode2(order2, v, v^0x2a))
			return uint64(x + y)
		}),
	}
	// The service-sized jobs, where the auto portfolio is worth timing.
	row := func(name string, smoke bool, c placeCase, run func(*testing.B)) Row {
		return Row{Suite: "geometric", Name: name + "/" + c.name(), Smoke: smoke, Run: run, Ref: c.bench(flat), RefName: "flat"}
	}
	small, large := placeCase{"stencil9:64,64", "torus:16,16"}, placeCase{"stencil9:128,128", "torus:16,16"}
	return append(rows,
		row("sfc", true, small, small.bench(sfcGeo)),
		row("rcb-sfc", false, small, small.bench(rcbSFCGeo)),
		row("auto", true, small, small.autoBench),
		row("sfc", false, large, large.bench(sfcGeo)),
		row("rcb-sfc", false, large, large.bench(rcbSFCGeo)),
		row("auto", false, large, large.autoBench),
	)
}

// hierRows: does two-phase mapping earn its keep over treating the
// machine as flat, at 65k tasks on 16384 processors (the 4k-task points
// are lib-scale jobs, and core.TestHierBeatsFlatOnStencil pins their
// ratio). Each tier's reference is its best flat placer on the composite
// metric: multilevel among the graph-only ones, the Hilbert curve among
// the coordinate-informed ones.
func hierRows() []Row {
	c := placeCase{"stencil9:288,228", "hier:pod:4/rack:8/node:16:torus-4x8"}
	return []Row{
		{Suite: "hier", Name: "hier/" + c.name(), Run: c.bench(hier), Ref: c.bench(multilevel), RefName: "flat-multilevel"},
		{Suite: "hier", Name: "hier-geo/" + c.name(), Smoke: true, Run: c.bench(hierGeo), Ref: c.bench(sfcGeo), RefName: "flat-sfc-geo"},
	}
}
