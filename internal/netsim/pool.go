package netsim

import (
	"sync"
	"sync/atomic"
)

// enginePool recycles Engines process-wide so sweep runners and the
// mapping service reuse a warm event slab, run table and key heap instead
// of growing a fresh arena per simulation. Engines carry no cross-run state:
// GetEngine returns an arbitrary pooled engine and every user must treat
// it as dirty until ReplayOn (or its own code) calls Reset.
var enginePool = sync.Pool{New: func() any {
	enginePoolStats.news.Add(1)
	return &Engine{}
}}

// PoolStats counts engine-pool traffic since process start. Reuses = Gets − News: how many simulations ran on a
// recycled arena instead of a fresh allocation.
type PoolStats struct {
	Gets int64 `json:"gets"`
	Puts int64 `json:"puts"`
	News int64 `json:"news"`
}

// Reuses returns how many GetEngine calls were served by a recycled
// engine rather than a fresh allocation.
func (s PoolStats) Reuses() int64 { return s.Gets - s.News }

var enginePoolStats struct {
	gets, puts, news atomic.Int64
}

// GetEngine borrows an engine from the process-wide pool.
func GetEngine() *Engine {
	enginePoolStats.gets.Add(1)
	return enginePool.Get().(*Engine)
}

// PutEngine returns an engine to the pool. The caller must not use it
// afterwards.
func PutEngine(e *Engine) {
	enginePoolStats.puts.Add(1)
	enginePool.Put(e)
}

// PoolCounters returns a snapshot of the engine-pool counters.
func PoolCounters() PoolStats {
	return PoolStats{
		Gets: enginePoolStats.gets.Load(),
		Puts: enginePoolStats.puts.Load(),
		News: enginePoolStats.news.Load(),
	}
}
