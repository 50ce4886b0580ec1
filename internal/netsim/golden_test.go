package netsim_test

// Golden Stats, recorded at commit 60ad936 — the last with the binary
// heap and the calendar queue, which agreed on every word below at
// thresholds {auto, heap only, calendar at once}, and the legacy simulator
// with them on the nine non-wormhole workloads. They pin the simulator's
// observable behaviour; buffered and wormhole mode have no other oracle.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/netsim"
)

// goldenStats maps a workload name to Engine.Processed() and the
// StatsWords of its Stats.
var goldenStats = map[string]struct {
	events int64
	words  []uint64
}{
	"deterministic/all-to-all-packets":    {3008, []uint64{0xf0, 0xf0, 0x410d4c0000000000, 0x3f7990ffa5757e3c, 0x3f8ba60b97e3b6f9, 0x3f889374bc6a7eff, 0x3f80624dd2f1a9ff, 0x3f747afc1fa0af3b, 0x3f8916a202f4a70b, 0x3f8ba60b97e3b6f9}},
	"deterministic/hotspot-3d":            {10210, []uint64{0x280, 0x280, 0x4144000000000000, 0x3f7233c1c189802b, 0x3f8ad80006b5fc65, 0x3f8ad7f29abcaf06, 0x3f2ad7f29abcaf1b, 0x0, 0x0, 0x0}},
	"deterministic/shift-mesh-monolithic": {1796, []uint64{0x100, 0x100, 0x4130000000000000, 0x3f28339909a6c7d4, 0x3f36e04148ca9f22, 0x3f2ad7f29abcaf47, 0x3f227476ca61b879, 0x3f2aef6f8f041461, 0x3f3428abf0b432a3, 0x3f3586fadb7dea93}},
	"deterministic/self-and-overhead":     {50, []uint64{0x4, 0x4, 0x412e942200000000, 0x3f4276fb09203900, 0x3f527bb2fec56600, 0x3f50667f90d9d777, 0x3f10624dd2f1a9fc, 0x0, 0x0, 0x0}},
	"adaptive/hotspot":                    {576, []uint64{0x90, 0x90, 0x4101940000000000, 0x3f91ef293003a40e, 0x3fa26e978d4fdf3f, 0x3fa26e978d4fdf3f, 0x3f689374bc6a7eff, 0x3f916872b020c49e, 0x3fa16872b020c49f, 0x3fa26e978d4fdf3f}},
	"adaptive/all-to-all-packets":         {3008, []uint64{0xf0, 0xf0, 0x411d4c0000000000, 0x3f54e65bea0ba1f4, 0x3f6205bc01a36e2d, 0x3f6205bc01a36e2d, 0x3f5a36e2eb1c4328, 0x0, 0x0, 0x0}},
	"buffered/torus-all-to-all":           {1264, []uint64{0xf0, 0xf0, 0x410d4c0000000000, 0x3f92eedef78e5e1e, 0x3faeb917e42253f8, 0x3f889374bc6a7efc, 0x3f80624dd2f1a9ff, 0x3f8cacc418c924a2, 0x3fa9172b95b00018, 0x3fadb2efabf4e600}},
	"buffered/mesh-packets":               {4560, []uint64{0xf0, 0xf0, 0x4115f90000000000, 0x3f92a4413d620b36, 0x3fa78e4ee2bc2266, 0x3f989374bc6a7eff, 0x3f947ae147ae147f, 0x0, 0x0, 0x0}},
	"buffered/ring-dateline":              {30, []uint64{0x6, 0x6, 0x40b7700000000000, 0x3f726e978d4fdf3c, 0x3f7cac083126e979, 0x3f60624dd2f1a9fc, 0x3f50624dd2f1a9fc, 0x0, 0x0, 0x0}},
	"wormhole/hotspot-2d":                 {133092, []uint64{0x100, 0x100, 0x4140000000000000, 0x3f71de5fb1c15686, 0x3f85af3ec765feb8, 0x3f85798ee2308597, 0x3f35798ee2308a89, 0x3f70c9c1aa84cffb, 0x3f83f2b6406e545c, 0x3f855881cc4866d8}},
	"wormhole/all-to-all-3d":              {7040, []uint64{0x100, 0x100, 0x411f400000000000, 0x3f8087045e339202, 0x3f999a0baf60ab3f, 0x3f847ae147ae147f, 0x3f721735ee402bb5, 0x0, 0x0, 0x0}},
	"wormhole/ring-dateline":              {684, []uint64{0xc, 0xc, 0x40c1940000000000, 0x3f73c6a7ef9db231, 0x3f8178d4fdf3b649, 0x3f6cac083126e97f, 0x3f5cac083126e97f, 0x3f720c49ba5e3543, 0x3f8178d4fdf3b649, 0x3f8178d4fdf3b649}},
}

// goldenLatencyHashes maps every golden workload that collects latencies
// to latencyHash of its whole latency stream, recorded at e87b49d, where
// the legacy simulator still matched the four non-wormhole streams
// latency by latency.
var goldenLatencyHashes = map[string]uint64{
	"deterministic/all-to-all-packets":    0xb960f818a4e0cd6e,
	"deterministic/shift-mesh-monolithic": 0xd3e5dcf2c3c4572f,
	"adaptive/hotspot":                    0x62c7ccee0bbb56a1,
	"buffered/torus-all-to-all":           0x8c32de2afbf4bdda,
	"wormhole/hotspot-2d":                 0x5a7de6852af2d45b,
	"wormhole/ring-dateline":              0x50d1996f5922aa97,
}

// latencyHash is FNV-1a over the little-endian bits of every latency, in
// delivery order.
func latencyHash(lat []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range lat {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkGolden runs every workload at GOMAXPROCS {1, 2, 8} and requires
// the recorded event count, every recorded Stats word and, where the
// workload collects latencies, the recorded latency stream.
func checkGolden(t *testing.T, ws []workload) {
	t.Helper()
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, w := range ws {
			want, ok := goldenStats[w.name]
			if !ok {
				t.Errorf("%s: no golden entry", w.name)
				continue
			}
			net, eng := runNew(t, w)
			if eng.Processed() != want.events {
				t.Errorf("GOMAXPROCS=%d %s: %d events, golden %d", procs, w.name, eng.Processed(), want.events)
			}
			h, ok := goldenLatencyHashes[w.name]
			switch collects := w.cfg().CollectLatencies; {
			case ok != collects:
				t.Errorf("%s: collects latencies %v, has a golden latency hash %v", w.name, collects, ok)
			case ok && latencyHash(net.Latencies()) != h:
				t.Errorf("GOMAXPROCS=%d %s: latency stream hash %#x, golden %#x", procs, w.name, latencyHash(net.Latencies()), h)
			}
			got := netsim.StatsWords(net.Stats())
			for i := range want.words {
				if got[i] != want.words[i] {
					t.Errorf("GOMAXPROCS=%d %s: stats word %d = %#x, golden %#x",
						procs, w.name, i, got[i], want.words[i])
					break
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestGoldenStatsCrosscheck holds the nine workloads the legacy simulator
// was once compared on to its recorded words and latency streams; in
// buffered mode this is the only exact check.
func TestGoldenStatsCrosscheck(t *testing.T) {
	checkGolden(t, crosscheckWorkloads())
}
