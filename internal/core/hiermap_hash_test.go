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
// comment reads that change. Nine were re-recorded when HierMap's own
// cross-leaf pass (the first eight cross-leaf partners of each task, best
// one kept) gave way to two sweeps of Refine; the last arrow of each
// comment reads that change, and is the only one where no earlier change
// moved the case. Eight fall. rgg:960,8 on the zone:3 machine ends 2.4 %
// higher: both passes are greedy, and Refine's first-improvement sweep
// stops at another local optimum there. The five surjective cases split
// without coordinates gained one more arrow when CapacityPartition's
// count repair took hybrid's rule (rescore the donor's members after
// every move, not rank them once); all five fall, rgg:960,8 on zone:3 by
// 26.5 %. The coordinate cases split through CapacityRCB, and the
// packing case's splits come out the same under both rules, so none of
// them moved.
func TestHierMapPlaceHashes(t *testing.T) {
	const machine = "pod:2/rack:4/node:8:torus-2x4"
	cases := []struct {
		pattern, machine string
		coords           bool
		want             uint64
	}{
		{"rgg:1024,8", machine, false, 0x43b3139f922ff6c1},     // 4113181911 → 4113092586 → 4113498220 → 4112641447 → 3403524207
		{"rgg:1024,8", machine, true, 0x7dd1bab28e47546d},      // 2523103285 → 2520019175 → 2519468920 → 2516253638
		{"rgg:4096,8", machine, false, 0xe14bc4313d97d1b9},     // 7136738467 → 7130742203 → 7108149528 → 7089854516 → 5220391526
		{"rgg:4096,8", machine, true, 0x9ddc88dca7e623c5},      // 5973246508 → 5975917814 → 5949215860 → 5930752936
		{"stencil9:32,16", machine, false, 0x1a30705b12df44e5}, // 4393600000 → 4393050000 → 4298700000
		{"stencil9:32,16", machine, true, 0x49f6081c90a90a25},
		{"stencil9:80,48", machine, false, 0x85f603b05676db11},             // 1.3037375e10 → 1.3038475e10 → 1.300285e10 → 1.298445e10 → 1.2895875e10
		{"stencil9:80,48", machine, true, 0xcc34ea8b1b93b625},              // 1.11144e10 → 1.10984e10 → 1.10888e10 → 1.10808e10
		{"stencil9:20,10", machine, false, 0x78f3d9c2f3e0a025},             // 612625000 → 610450000
		{"rgg:960,8", "zone:3/host:4:mesh-3x3", false, 0xf25e58658f979845}, // 583668761.6 → 580774789.6 → 575093078.9 → 589022067.8 → 432747740.8
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
