//go:build race

package hpbench

// The race detector slows the workloads several-fold.
func init() { timeLimit *= 5 }
