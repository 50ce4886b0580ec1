package taskgraph

// The external tests reach the map reference through these.
var (
	NewMapBuilder = newMapBuilder
	SameGraph     = sameGraph
)
