package hpbench

import "time"

// reportSize shapes one report workload's regeneration.
type reportSize struct {
	insts   uint64
	benches []string // nil: all twelve benchmarks
	sampled bool
	// warmReplays is how many warm All() replays follow the cold units.
	warmReplays int
}

// sizes is the scale of every workload. defaultSizes is what the
// benchmark measures; the tests shrink it so each workload finishes in
// seconds.
type sizes struct {
	// minUnits is the fewest units a run completes, however short its
	// window: enough for a median, and for a traced run to have both
	// traced and untraced units.
	minUnits int
	// setups is how many times set-up repeats; setup_s is the median.
	setups int

	coreInsts   uint64
	coreBenches []string

	full, sampled reportSize

	// serveInsts is the budget of interactive, batch and background jobs.
	serveInsts [3]uint64
	// traceSlice is how long a traced serve run keeps tracing on or off
	// before switching.
	traceSlice time.Duration
}

// The core matrix reuses cmd/bench's workload spread (high/low IPC,
// memory-bound, branchy) so the two benchmarks stay comparable.
var coreBenches = []string{"gzip", "mcf", "crafty", "vpr"}

func defaultSizes() sizes {
	return sizes{
		minUnits:    3,
		setups:      9,
		coreInsts:   200_000,
		coreBenches: coreBenches,
		// 30k instructions keep one cold regeneration near 4 s on two
		// cores, so a 20 s window holds five of them.
		full: reportSize{insts: 30_000, warmReplays: 100},
		// Sampled runs at 500k instructions over the core's four
		// benchmarks: a regeneration takes about 6 s and the detailed
		// windows stay a small share of each stream.
		sampled: reportSize{insts: 500_000, benches: coreBenches, sampled: true},
		// The assumed traffic's budgets (see serve.go).
		serveInsts: [3]uint64{50_000, 200_000, 400_000},
		// Sweeps take about a second, so most fit inside one slice.
		traceSlice: 4 * time.Second,
	}
}

// testSizes is the tiny scale the package tests run every workload at.
func testSizes() sizes {
	return sizes{
		minUnits:    3,
		setups:      1,
		coreInsts:   4_000,
		coreBenches: []string{"gzip"},
		full:        reportSize{insts: 3_000, benches: []string{"gzip"}, warmReplays: 3},
		sampled:     reportSize{insts: 20_000, benches: []string{"gzip"}, sampled: true},
		serveInsts:  [3]uint64{2_000, 4_000, 6_000},
		traceSlice:  100 * time.Millisecond,
	}
}
