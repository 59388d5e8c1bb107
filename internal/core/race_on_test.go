//go:build race

package core

// raceEnabled lets allocation-count tests skip themselves under the
// race detector, whose sync.Pool drops a share of what is Put.
const raceEnabled = true
