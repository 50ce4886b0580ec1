package metrics

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

func TestCountersTrackCacheAndPool(t *testing.T) {
	topology.PurgeDistanceCache()
	topology.ResetDistCacheStats()
	netsim.ResetPoolStats()

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
	if c.DistMatrixCache.Misses != 1 {
		t.Errorf("misses = %d, want 1", c.DistMatrixCache.Misses)
	}
	if c.DistMatrixCache.Hits < 1 {
		t.Errorf("hits = %d, want >= 1", c.DistMatrixCache.Hits)
	}
	if c.DistMatrixCache.Bypasses != 1 {
		t.Errorf("bypasses = %d, want 1", c.DistMatrixCache.Bypasses)
	}
	if c.EnginePool.Gets != 2 || c.EnginePool.Puts != 2 {
		t.Errorf("pool gets/puts = %d/%d, want 2/2", c.EnginePool.Gets, c.EnginePool.Puts)
	}
	if c.EnginePool.Reuses != c.EnginePool.Gets-c.EnginePool.News {
		t.Errorf("reuses = %d, want gets-news = %d", c.EnginePool.Reuses, c.EnginePool.Gets-c.EnginePool.News)
	}

	if n := topology.PurgeDistanceCache(); n != 1 {
		t.Errorf("purge dropped %d entries, want 1", n)
	}
	if ev := topology.DistCacheCounters().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}
