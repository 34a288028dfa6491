//go:build race

package main

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts and pooled scratch (encoding/json's encoder state
// among it) is reallocated.
const raceEnabled = true
