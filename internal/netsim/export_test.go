package netsim

// RunsOpened reports how many runs (heap keys) the engine has opened since
// its last Reset, for the external tests that pin events per run.
func RunsOpened(e *Engine) int64 { return e.opened }

// StatsWords flattens Stats to exact words for the external tests.
var StatsWords = statsWords
