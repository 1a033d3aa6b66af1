//go:build race

package uarch

// The race detector allocates shadow state of its own.
func init() { raceEnabled = true }
