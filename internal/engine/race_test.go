//go:build race

package engine

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts and pooled scratch is reallocated.
const raceEnabled = true
