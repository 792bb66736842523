//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a share of what it is
// given, so WriteFrame's pooled buffer is sometimes a fresh one.
const raceEnabled = true
