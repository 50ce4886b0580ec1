package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hiertopo"
)

// TestHierMapPlaceHashes pins HierMap{Seed: 1}.Place, placement for
// placement: the four lib-scale hier inputs with and without their
// pattern's coordinates, a packing case (fewer tasks than processors), a
// surjective case on another machine, and extras-hier's ratio-3 machine.
// The hashes were recorded at 254cd3f, while the cross-leaf refine pass
// still scored swaps in floating-point level costs. Every hierarchy here
// has integral costs, under which that score and SwapDelta's are the same
// sums, so no hash may move. Seven were re-recorded when the V-cycle's
// machine-neighbour swap candidates, which overfull leaves reach through
// MultilevelMap, were made machine neighbours; each comment reads the
// hop-bytes before → after. Seven were re-recorded again when the
// V-cycle's finest level gained the label-cut pass, which lowers every
// overfull labelled leaf's own hop-bytes; the second arrow of each
// comment reads that change. rgg:1024,8 without coordinates ends
// 405 634 hop-bytes (0.01 %) higher: its leaves went 4280032544 →
// 4279752300 before the cross-leaf pass, which is greedy and stopped at
// another local optimum.
func TestHierMapPlaceHashes(t *testing.T) {
	const machine = "pod:2/rack:4/node:8:torus-2x4"
	cases := []struct {
		pattern, machine string
		coords           bool
		want             uint64
	}{
		{"rgg:1024,8", machine, false, 0x7f4ef4c80fac4c89}, // 4113181911 → 4113092586 → 4113498220
		{"rgg:1024,8", machine, true, 0x7430b98771acd939},  // 2523103285 → 2520019175 → 2519468920
		{"rgg:4096,8", machine, false, 0xe0bd0bb7bc9ea80d}, // 7136738467 → 7130742203 → 7108149528
		{"rgg:4096,8", machine, true, 0x00cecf30e0b47fa5},  // 5973246508 → 5975917814 → 5949215860
		{"stencil9:32,16", machine, false, 0x6f633e436a848b85},
		{"stencil9:32,16", machine, true, 0x49f6081c90a90a25},
		{"stencil9:80,48", machine, false, 0xf0f8d673cd9d3b65}, // 1.3037375e10 → 1.3038475e10 → 1.300285e10
		{"stencil9:80,48", machine, true, 0x2f363005e7bd9125},  // 1.11144e10 → 1.10984e10 → 1.10888e10
		{"stencil9:20,10", machine, false, 0x2fb1727883bb97e5},
		{"rgg:960,8", "zone:3/host:4:mesh-3x3", false, 0xc2ad18505fb7e285}, // 583668761.6 → 580774789.6 → 575093078.9
		{"stencil9:40,24", "pod:2@27/rack:4@9/node:8@3:torus-2x4", true, 0x69feeafa265fa825},
	}
	for _, tc := range cases {
		name := tc.pattern + "/" + tc.machine
		if tc.coords {
			name += "/coords"
		}
		t.Run(name, func(t *testing.T) {
			g, err := cliutil.ParsePattern(tc.pattern, 1e5, 1)
			if err != nil {
				t.Fatal(err)
			}
			h, err := hiertopo.Parse(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			s := core.HierMap{Seed: 1}
			if tc.coords {
				s.Coords = cliutil.PatternCoords(tc.pattern, 1)
			}
			pl, err := s.Place(g, h)
			if err != nil {
				t.Fatal(err)
			}
			sum := fnv.New64a()
			var b [8]byte
			for _, q := range pl {
				binary.LittleEndian.PutUint64(b[:], uint64(q))
				sum.Write(b[:])
			}
			if got := sum.Sum64(); got != tc.want {
				t.Errorf("placement hash %#x, want %#x", got, tc.want)
			}
		})
	}
}
