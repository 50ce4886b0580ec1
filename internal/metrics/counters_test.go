package metrics

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// The counters run from process start, so the test reads how far each
// moves between two snapshots.
func TestCountersTrackCacheAndPool(t *testing.T) {
	topology.PurgeDistanceCache()
	before := Counters()

	// A labelled machine needs no matrix: the lookup is a bypass.
	if topology.CachedDistances(topology.MustTorus(4, 4)) != nil {
		t.Fatal("a matrix for a 16-node even torus, whose labels give every distance")
	}
	// An odd torus has no labels: it gets a matrix, built once.
	to := topology.MustTorus(5, 3)
	if topology.CachedDistances(to) == nil {
		t.Fatal("expected a cached matrix for a 15-node odd torus")
	}
	if topology.CachedDistances(to) == nil {
		t.Fatal("second lookup returned nil")
	}
	eng := netsim.GetEngine()
	netsim.PutEngine(eng)
	eng2 := netsim.GetEngine()
	netsim.PutEngine(eng2)

	c := Counters()
	if d := c.DistMatrixCache.Misses - before.DistMatrixCache.Misses; d != 1 {
		t.Errorf("misses rose by %d, want 1", d)
	}
	if d := c.DistMatrixCache.Hits - before.DistMatrixCache.Hits; d < 1 {
		t.Errorf("hits rose by %d, want >= 1", d)
	}
	if d := c.DistMatrixCache.Bypasses - before.DistMatrixCache.Bypasses; d != 1 {
		t.Errorf("bypasses rose by %d, want 1", d)
	}
	gets := c.EnginePool.Gets - before.EnginePool.Gets
	puts := c.EnginePool.Puts - before.EnginePool.Puts
	if gets != 2 || puts != 2 {
		t.Errorf("pool gets/puts rose by %d/%d, want 2/2", gets, puts)
	}
	if c.EnginePool.Reuses != c.EnginePool.Gets-c.EnginePool.News {
		t.Errorf("reuses = %d, want gets-news = %d", c.EnginePool.Reuses, c.EnginePool.Gets-c.EnginePool.News)
	}

	if n := topology.PurgeDistanceCache(); n != 1 {
		t.Errorf("purge dropped %d entries, want 1", n)
	}
	if d := topology.DistCacheCounters().Evictions - c.DistMatrixCache.Evictions; d != 1 {
		t.Errorf("evictions rose by %d, want 1", d)
	}
}
