package topology

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// DistanceMatrix is a materialized all-pairs distance table: a flat
// row-major []int32 so the mapping kernels' hot loops replace a virtual
// Distance call per cell with an inlineable slice index. Matrices are
// immutable after construction and safe for concurrent readers.
type DistanceMatrix struct {
	n int
	d []int32
}

// NewDistanceMatrix builds the table for t with one parallel per-source
// sweep: breadth-first search per source for explicit Graphs (no shared
// BFS cache, no locks), the closed-form oracle, ClosedDists, for
// everything else. Rows are filled independently and written to disjoint
// slices, so the result is identical for any GOMAXPROCS.
func NewDistanceMatrix(t Topology) *DistanceMatrix {
	n := t.Nodes()
	m := &DistanceMatrix{n: n, d: make([]int32, n*n)}
	if g, ok := t.(*Graph); ok {
		parallel.For(n, 16, func(lo, hi int) {
			queue := make([]int32, 0, n)
			for a := lo; a < hi; a++ {
				g.bfsRow(a, m.d[a*n:(a+1)*n], nil, queue)
			}
		})
		return m
	}
	d := ClosedDists(t)
	parallel.For(n, 16, func(lo, hi int) {
		d := d // the chunk's own copy: a method call on the captured one would move it to the heap
		for a := lo; a < hi; a++ {
			row := m.d[a*n : (a+1)*n]
			for b := range row {
				row[b] = int32(d.closed(a, b)) // a ClosedDists never holds a matrix
			}
		}
	})
	return m
}

// Nodes returns the number of nodes the matrix covers.
func (m *DistanceMatrix) Nodes() int { return m.n }

// Row returns the distances from a to every node. The slice aliases the
// matrix and must not be modified.
func (m *DistanceMatrix) Row(a int) []int32 {
	return m.d[a*m.n : (a+1)*m.n : (a+1)*m.n]
}

// DefaultDistanceMatrixCap is the default materialization bound in cells
// (n²). 1<<26 cells is 256 MiB of int32 — enough for the paper's largest
// sweep (p = 6084) while refusing to materialize million-node machines.
const DefaultDistanceMatrixCap = 1 << 26

// distMatrixCap is the current bound; <= 0 disables materialization.
var distMatrixCap atomic.Int64

func init() { distMatrixCap.Store(DefaultDistanceMatrixCap) }

// SetDistanceMatrixCap sets the materialization bound in cells and
// returns the previous value. Passing 0 (or negative) disables the cache
// entirely — every CachedDistances call returns nil and kernels, the
// incremental engine's MatrixDists included, fall back to the machine's
// closed form (ClosedDists). Only tests call it, to hold every kernel's
// mappings equal with and without the matrix; the benchmarks' matrix
// reference reads the cached matrix instead. Already-cached matrices are
// not re-checked against the new bound.
func SetDistanceMatrixCap(cells int) int {
	return int(distMatrixCap.Swap(int64(cells)))
}

// maxCachedMatrices bounds the name-keyed store; maxIdentEntries bounds
// the per-instance fast path. Both evict in insertion order: the cache
// exists to carry one experiment sweep's few topologies, not to be an LRU.
const (
	maxCachedMatrices = 4
	maxIdentEntries   = 32
)

// distEntry is a lazily built cache slot: sync.Once guarantees exactly one
// builder per key even under concurrent first lookups.
type distEntry struct {
	once sync.Once
	m    *DistanceMatrix
}

var distCache struct {
	mu     sync.Mutex
	byKey  map[string]*distEntry
	keys   []string // insertion order, for bounded eviction
	ident  map[Topology]*DistanceMatrix
	idents []Topology // insertion order, for bounded eviction
}

// DistCacheStats counts distance-matrix cache traffic since process start.
// Hits are lookups served from an already-built matrix, Misses are lookups
// that had to build one, Bypasses are lookups refused by the size cap, and
// Evictions counts entries dropped by the insertion-order bound or
// PurgeDistanceCache.
type DistCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Bypasses  int64 `json:"bypasses"`
}

var distCacheStats struct {
	hits, misses, evictions, bypasses atomic.Int64
}

// DistCacheCounters returns a snapshot of the cache counters.
func DistCacheCounters() DistCacheStats {
	return DistCacheStats{
		Hits:      distCacheStats.hits.Load(),
		Misses:    distCacheStats.misses.Load(),
		Evictions: distCacheStats.evictions.Load(),
		Bypasses:  distCacheStats.bypasses.Load(),
	}
}

// PurgeDistanceCache drops every cached matrix (counted as evictions) and
// returns how many keyed entries were dropped. Long-running services call
// it to bound memory when topologies stop recurring; benchmarks call it
// to measure the cache-cold path.
func PurgeDistanceCache() int {
	distCache.mu.Lock()
	defer distCache.mu.Unlock()
	n := len(distCache.keys)
	distCacheStats.evictions.Add(int64(n))
	distCache.byKey = nil
	distCache.keys = nil
	distCache.ident = nil
	distCache.idents = nil
	return n
}

// Ephemeral marks adapter topologies whose Name does not uniquely
// determine their distance function — e.g. a mapper's view of a subset of
// a machine's processors, whose distances depend on the subset chosen for
// the task graph being mapped. Neither CachedDistances nor MatrixDists
// materializes or caches a matrix for an Ephemeral topology: a cache hit
// across two different adapters with equal names would silently serve
// wrong distances, and the adapters exist precisely to keep memory free
// of O(p²) tables.
type Ephemeral interface {
	Topology
	// EphemeralTopology is a marker method.
	EphemeralTopology()
}

// CachedDistances returns the lazily built, globally cached distance
// matrix for t, or nil when t needs none, may not have one or is too
// large to materialize under the current cap. A machine whose ClosedDists
// answers from labels needs none: a mesh or even torus whose labels fit
// a word, and a hypercube. An Ephemeral adapter may not have one. So the
// cache holds only machines without a word-sized closed form: explicit
// graphs, fat-trees, dragonflies, hierarchies and odd tori (MatrixDists
// adds the labelled machines the incremental engine reads). Kernels do
// not call it: NewDists does, and falls back to the closed
// form when it returns nil. The cache is keyed by Name()+node count — Name
// must uniquely determine the distance function, which holds for every
// closed-form topology in this package; explicit Graphs carry a
// process-unique id instead, since two graphs with equal node and edge
// counts share a Name but not distances.
func CachedDistances(t Topology) *DistanceMatrix {
	if _, ok := t.(Ephemeral); ok {
		distCacheStats.bypasses.Add(1)
		return nil
	}
	if d := ClosedDists(t); d.kind == distLabel {
		distCacheStats.bypasses.Add(1)
		return nil
	}
	return cachedMatrix(t)
}

// cachedMatrix is CachedDistances for any machine but an Ephemeral one:
// the matrix under the cap, built once per key.
func cachedMatrix(t Topology) *DistanceMatrix {
	n := t.Nodes()
	cells := int64(n) * int64(n)
	if cap := distMatrixCap.Load(); cap <= 0 || cells > cap {
		distCacheStats.bypasses.Add(1)
		return nil
	}

	distCache.mu.Lock()
	if m, ok := distCache.ident[t]; ok {
		distCache.mu.Unlock()
		distCacheStats.hits.Add(1)
		return m
	}
	if distCache.byKey == nil {
		distCache.byKey = make(map[string]*distEntry)
		distCache.ident = make(map[Topology]*DistanceMatrix)
	}
	var key string
	if g, ok := t.(*Graph); ok {
		key = "graph#" + strconv.FormatUint(g.id, 10)
	} else {
		key = fmt.Sprintf("%s/%d", t.Name(), n)
	}
	e, ok := distCache.byKey[key]
	if !ok {
		e = &distEntry{}
		distCache.byKey[key] = e
		distCache.keys = append(distCache.keys, key)
		if len(distCache.keys) > maxCachedMatrices {
			delete(distCache.byKey, distCache.keys[0])
			distCache.keys = distCache.keys[1:]
			distCacheStats.evictions.Add(1)
		}
		distCacheStats.misses.Add(1)
	} else {
		distCacheStats.hits.Add(1)
	}
	distCache.mu.Unlock()

	// Build outside the lock; Once serializes concurrent first callers.
	e.once.Do(func() { e.m = NewDistanceMatrix(t) })

	distCache.mu.Lock()
	if distCache.ident == nil { // a concurrent purge dropped the maps
		distCache.ident = make(map[Topology]*DistanceMatrix)
	}
	if _, ok := distCache.ident[t]; !ok {
		distCache.ident[t] = e.m
		distCache.idents = append(distCache.idents, t)
		if len(distCache.idents) > maxIdentEntries {
			delete(distCache.ident, distCache.idents[0])
			distCache.idents = distCache.idents[1:]
		}
	}
	distCache.mu.Unlock()
	return e.m
}
