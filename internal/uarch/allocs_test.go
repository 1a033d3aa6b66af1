package uarch

import (
	"testing"

	"halfprice/internal/trace"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// makes allocation counts meaningless.
var raceEnabled bool

// allocSlack is how many more objects a run ten times longer may
// allocate: room for the front-queue ring to double a few more times
// (PIPELINE.md §Stage map). The measured difference is at most 1.
const allocSlack = 32

// TestRunAllocsIndependentOfBudget pins the hot loop as allocation-free
// after New: the uops ring is sized at construction, and the front-queue
// ring and scratch slices stop growing early in a run, so a
// 200k-instruction run allocates about as many objects as a 20k one. The
// instructions are materialised first so that only the simulator is
// counted.
func TestRunAllocsIndependentOfBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const short, long = 20000, 200000
	for _, bench := range []string{"gzip", "mcf"} {
		p, ok := trace.ProfileByName(bench)
		if !ok {
			t.Fatalf("unknown profile %s", bench)
		}
		insts := trace.Collect(trace.NewSynthetic(p, long), long)
		for _, w := range []struct {
			name string
			cfg  func() Config
		}{{"4wide", Config4Wide}, {"8wide", Config8Wide}} {
			allocs := func(n int) float64 {
				return testing.AllocsPerRun(1, func() {
					New(w.cfg(), trace.NewSliceStream(insts[:n])).Run()
				})
			}
			a, b := allocs(short), allocs(long)
			t.Logf("%s/%s: %.0f objects at %d insts, %.0f at %d", bench, w.name, a, short, b, long)
			if b-a > allocSlack {
				t.Errorf("%s/%s: %d more instructions allocated %.0f more objects (allowed %d)",
					bench, w.name, long-short, b-a, allocSlack)
			}
		}
	}
}
