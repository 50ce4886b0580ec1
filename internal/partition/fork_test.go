package partition

import (
	"runtime"
	"testing"

	"repro/internal/taskgraph"
)

// BenchmarkBuildHierarchy times the mapping hierarchy's coarsening, whose
// contract fills its rows in stripes, one a worker: compare -cpu 1,2.
func BenchmarkBuildHierarchy(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *taskgraph.Graph
	}{
		{"stencil9:512,512", taskgraph.Stencil9(512, 512, 1e5)},
		{"rgg:65536,8", taskgraph.RandomGeometricDeg(65536, 8, 1e5, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildHierarchy(c.g, 64)
			}
		})
	}
}

// BenchmarkRCB times coordinate bisection of 262 144 points into 4 096
// parts, whose large blocks split their halves side by side.
func BenchmarkRCB(b *testing.B) {
	coords := taskgraph.GridCoords(512, 512)
	targets := make([]int, 4096)
	for i := range targets {
		targets[i] = 64
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CapacityRCB(coords, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForkScratchPerWorker pins what the forks may allocate at
// GOMAXPROCS 2: Multilevel.Partition on stencil9:64,64 at k = 256 adds
// at most one more worker's trial scratch at the coarsest level's size
// (at most 4k vertices, 43 bytes each) to its GOMAXPROCS 1 bytes, and
// BuildHierarchy on stencil9:256,256 one more mark array at its first
// coarse level's size — per worker, not per try or per level — each with
// 16 KB for the workers themselves. The object counts have ceilings
// about 6 % above their values when the forks went in (1 505 and 174).
func TestForkScratchPerWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const k, forkBytes = 256, 16 << 10
	g, h := taskgraph.Stencil9(64, 64, 1e5), taskgraph.Stencil9(256, 256, 1e5)
	firstLevel := BuildHierarchy(h, 64).Levels[0].N
	measure := func(f func()) (objects, bytes uint64) {
		f()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	partition := func() {
		if _, err := (Multilevel{Seed: 1}).Partition(g, k); err != nil {
			t.Fatal(err)
		}
	}
	hierarchy := func() { BuildHierarchy(h, 64) }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	_, pBytes1 := measure(partition)
	_, hBytes1 := measure(hierarchy)
	runtime.GOMAXPROCS(2)
	pObjects, pBytes2 := measure(partition)
	hObjects, hBytes2 := measure(hierarchy)
	t.Logf("Multilevel.Partition: %d objects, %d bytes (%d at GOMAXPROCS 1)", pObjects, pBytes2, pBytes1)
	t.Logf("BuildHierarchy: %d objects, %d bytes (%d at GOMAXPROCS 1)", hObjects, hBytes2, hBytes1)
	if limit := pBytes1 + 43*4*k + forkBytes; pBytes2 > limit {
		t.Errorf("Multilevel.Partition allocates %d bytes at GOMAXPROCS 2, ceiling %d: more than one worker's scratch", pBytes2, limit)
	}
	if limit := hBytes1 + 4*uint64(firstLevel) + forkBytes; hBytes2 > limit {
		t.Errorf("BuildHierarchy allocates %d bytes at GOMAXPROCS 2, ceiling %d: more than one stripe's marks", hBytes2, limit)
	}
	if pObjects > 1600 {
		t.Errorf("Multilevel.Partition allocates %d objects at GOMAXPROCS 2, ceiling 1600", pObjects)
	}
	if hObjects > 185 {
		t.Errorf("BuildHierarchy allocates %d objects at GOMAXPROCS 2, ceiling 185", hObjects)
	}
}
