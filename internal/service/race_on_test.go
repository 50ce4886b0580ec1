//go:build race

package service

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a random share of its items, so exact allocation counts do not repeat.
const raceEnabled = true
