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

// allocsPerWindow is how many objects each window of a sampled run may
// allocate: its Stats (NewStats: the struct, its wakeup-slack histogram
// and the histogram's buckets), built once for the detailed warmup and
// once more for the measured region, and its result's share of the
// extrapolation (a boxed histogram weight, per-phase CPI lists). It
// measures about 7.5; building a simulator per window costs about 51.
const allocsPerWindow = 8

// TestRunSampledAllocsIndependentOfWindows pins a sampled run to one
// pipeline: every window runs on the same simulator, reset in place, so a
// plan with four times as many windows allocates only each extra
// window's Stats, plus allocSlack for the front-queue ring to double a
// few more times. The instructions are materialised first so that only
// the sampled run is counted.
func TestRunSampledAllocsIndependentOfWindows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const budget = 200000
	for _, bench := range []string{"gzip", "mcf"} {
		p, ok := trace.ProfileByName(bench)
		if !ok {
			t.Fatalf("unknown profile %s", bench)
		}
		insts := trace.Collect(trace.NewSynthetic(p, budget), budget)
		for _, w := range []struct {
			name string
			cfg  func() Config
		}{{"4wide", Config4Wide}, {"8wide", Config8Wide}} {
			allocs := func(k int) (float64, int) {
				ws := sampleEveryK(budget, 2000, 500, k)
				return testing.AllocsPerRun(1, func() {
					RunSampled(w.cfg(), trace.NewSliceStream(insts), ws, budget)
				}), len(ws)
			}
			a, na := allocs(20)
			b, nb := allocs(5)
			t.Logf("%s/%s: %.0f objects over %d windows, %.0f over %d", bench, w.name, a, na, b, nb)
			if allowed := float64((nb-na)*allocsPerWindow + allocSlack); b-a > allowed {
				t.Errorf("%s/%s: %d more windows allocated %.0f more objects (allowed %.0f)",
					bench, w.name, nb-na, b-a, allowed)
			}
		}
	}
}
