package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/taskgraph"
)

func assignHash(assign []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range assign {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestMultilevelPartitionHashes pins Multilevel.Partition, assignment for
// assignment, at seeds 1–3 on the two stencils and the leanmd job svc-cold
// partitions, a geometric graph and a fractional-weight random one. The
// hashes were recorded at the commit before FM selection became a
// tournament tree and the scratch arena went in (a024815): both are exact
// rewrites, so every hash must survive them.
func TestMultilevelPartitionHashes(t *testing.T) {
	cases := []struct {
		name string
		g    *taskgraph.Graph
		k    int
		want [3]uint64 // seeds 1, 2, 3
	}{
		{"stencil9:64,64", taskgraph.Stencil9(64, 64, 1e5), 256,
			[3]uint64{0x991caef338fe01a2, 0xf4555cd34624e07a, 0x91f1ff4d4a88fbbb}},
		{"stencil9:128,128", taskgraph.Stencil9(128, 128, 1e5), 512,
			[3]uint64{0x8dc93aade2ba7b60, 0xa80447645f5047c9, 0x4297f5f15ec46d7f}},
		{"leanmd:256", taskgraph.LeanMD(256, 1e5, 1), 256,
			[3]uint64{0xd50a209dafc9f5bc, 0xfdf08be1859e19c0, 0x135aced71634a2cf}},
		{"rgg:4096,8", taskgraph.RandomGeometricDeg(4096, 8, 1e5, 1), 64,
			[3]uint64{0x235a2a2748ae8d5a, 0xf89aa5ec2496f7b1, 0x7ba37b9188038a6e}},
		{"random-fractional", taskgraph.Random(3000, 12000, 0.37, 9.91, 11), 100,
			[3]uint64{0xea98aee1d8226e84, 0xc356338f62e54c7c, 0x6f0e6b70eed453b3}},
	}
	for _, tc := range cases {
		for i, want := range tc.want {
			seed := int64(i + 1)
			t.Run(fmt.Sprintf("%s/k=%d/seed=%d", tc.name, tc.k, seed), func(t *testing.T) {
				r, err := Multilevel{Seed: seed}.Partition(tc.g, tc.k)
				if err != nil {
					t.Fatal(err)
				}
				if got := assignHash(r.Assign); got != want {
					t.Fatalf("assignment hash %#x, want %#x", got, want)
				}
			})
		}
	}
}
