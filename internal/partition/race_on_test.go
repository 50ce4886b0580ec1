//go:build race

package partition

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a random share of its items, so fmt's printers and with them exact
// allocation counts do not repeat.
const raceEnabled = true
