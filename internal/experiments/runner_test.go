package experiments

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"halfprice/internal/sample"
	"halfprice/internal/uarch"
)

// testObserver counts events and checks the queued -> started -> finished
// lifecycle; it must be safe for concurrent use, like any Observer.
type testObserver struct {
	mu                        sync.Mutex
	queued, started, finished int
	insts                     uint64
}

func (o *testObserver) RunQueued(bench, config string, insts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queued++
}

func (o *testObserver) RunStarted(bench, config string, insts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started++
	if o.started > o.queued {
		panic("RunStarted before RunQueued")
	}
}

func (o *testObserver) RunFinished(bench, config string, insts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished++
	o.insts += insts
	if o.finished > o.started {
		panic("RunFinished before RunStarted")
	}
}

// TestMemoisationSharedBase asserts the singleflight memo: experiments
// that share the base machine simulate it exactly once, and repeated
// requests are counted as hits, not simulations.
func TestMemoisationSharedBase(t *testing.T) {
	obs := &testObserver{}
	r := NewRunner(Options{
		Insts:      5000,
		Benchmarks: []string{"gzip", "mcf"},
		Parallel:   4,
		Observer:   obs,
	})

	// All three experiments need Base(b, 4); Table2 adds Base(b, 8).
	r.Figure2Formats()
	r.Figure3Breakdown()
	r.Table2BaseIPC()

	// Unique simulations: 2 benchmarks x {4-wide base, 8-wide base}.
	if got, want := r.Sims(), uint64(4); got != want {
		t.Fatalf("Sims() = %d, want %d (base configs must simulate once)", got, want)
	}
	if r.Hits() == 0 {
		t.Fatal("expected memo hits from the shared base configuration")
	}
	if obs.queued != 4 || obs.started != 4 || obs.finished != 4 {
		t.Fatalf("observer saw queued=%d started=%d finished=%d, want 4/4/4 (events only for real simulations)",
			obs.queued, obs.started, obs.finished)
	}
	if want := uint64(4 * 5000); obs.insts != want {
		t.Fatalf("observer insts = %d, want %d", obs.insts, want)
	}

	// A fourth pass over the same configs is pure cache.
	before := r.Sims()
	r.Figure2Formats()
	if r.Sims() != before {
		t.Fatalf("re-running an experiment simulated again: %d -> %d", before, r.Sims())
	}
}

// sweep runs the ISSUE's equivalence sweep: 3 benchmarks x 2 configs
// (base and the combined half-price machine, both widths via
// Figure16Combined's normalisation) at a given pool size.
func sweep(t *testing.T, parallel int) []*Result {
	t.Helper()
	r := NewRunner(Options{
		Insts:      5000,
		Benchmarks: []string{"gzip", "mcf", "crafty"},
		Parallel:   parallel,
	})
	return []*Result{r.Figure16Combined(), r.Table2BaseIPC()}
}

// TestSerialParallelEquivalence proves the tentpole invariant: the
// parallel sweep is bit-identical to the serial one. Each simulation
// owns its seeded RNG (trace.Profile), so scheduling order cannot leak
// into results; the rendered Result JSON must match byte for byte.
func TestSerialParallelEquivalence(t *testing.T) {
	serial, err := json.Marshal(sweep(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := json.Marshal(sweep(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(parallel) {
		t.Fatalf("-j 1 and -j 8 sweeps differ\n--- j=1 ---\n%s\n--- j=8 ---\n%s", serial, parallel)
	}
}

// TestRunnerConcurrentExperiments hammers one runner from many
// goroutines requesting overlapping configurations; under -race this
// proves the memo cache and worker pool are data-race free, and the
// singleflight guarantee must still hold.
func TestRunnerConcurrentExperiments(t *testing.T) {
	r := NewRunner(Options{
		Insts:      2000,
		Benchmarks: []string{"gzip", "mcf"},
		Parallel:   4,
	})
	seqW := func(c *uarch.Config) { c.Wakeup = uarch.WakeupSequential }

	var wg sync.WaitGroup
	stats := make([]*uarch.Stats, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := "gzip"
			if i%2 == 1 {
				b = "mcf"
			}
			stats[i] = r.Run(b, 4, seqW)
		}(i)
	}
	wg.Wait()

	// 2 unique (bench, config) pairs; every duplicate request must have
	// received the leader's pointer, not a fresh simulation.
	if got, want := r.Sims(), uint64(2); got != want {
		t.Fatalf("Sims() = %d, want %d", got, want)
	}
	for i := 2; i < 16; i++ {
		if stats[i] != stats[i%2] {
			t.Fatalf("request %d got a different *Stats than the leader", i)
		}
	}

	// Mixing whole experiments concurrently must also be safe.
	wg.Add(3)
	go func() { defer wg.Done(); r.Figure14SeqWakeup() }()
	go func() { defer wg.Done(); r.Figure15SeqRegAccess() }()
	go func() { defer wg.Done(); r.EventCounters() }()
	wg.Wait()
}

// TestPanicPropagatesToWaiters requests an unknown benchmark from
// several goroutines: the singleflight leader panics, and every waiter
// must re-raise that panic on its own stack instead of deadlocking on
// the in-flight entry or returning a nil *Stats. In the sampled case the
// goroutines ask for 4- and 8-wide runs, which share a plan entry but
// not a Stats entry, so the plan's error must reach both.
func TestPanicPropagatesToWaiters(t *testing.T) {
	spec := sample.DefaultSpec()
	for _, tc := range []struct {
		name   string
		opts   Options
		widths []int
	}{
		{"full", Options{Insts: 100, Parallel: 2}, []int{4}},
		{"sampled", Options{Insts: 100, Parallel: 2, Sample: &spec}, []int{4, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(tc.opts)
			var wg sync.WaitGroup
			panics := make([]any, 4)
			for i := range panics {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() { panics[i] = recover() }()
					r.Run("frobnitz", tc.widths[i%len(tc.widths)], nil)
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("a waiter hung on the failed entry")
			}
			for i, p := range panics {
				if p == nil {
					t.Fatalf("goroutine %d: unknown-benchmark panic not propagated", i)
				}
			}
		})
	}
}

// TestWarm checks the calibrate prewarm path: after Warm, the dashboard
// reads are pure cache hits.
func TestWarm(t *testing.T) {
	r := NewRunner(Options{
		Insts:      2000,
		Benchmarks: []string{"gzip", "mcf"},
		Parallel:   4,
	})
	r.Warm(4, 8)
	if got, want := r.Sims(), uint64(4); got != want {
		t.Fatalf("Warm simulated %d configs, want %d", got, want)
	}
	before := r.Sims()
	r.Base("gzip", 4)
	r.Base("mcf", 8)
	if r.Sims() != before {
		t.Fatal("post-Warm Base reads must not simulate")
	}
}

// TestParallelDefault pins the flag contract: Parallel <= 0 falls back
// to GOMAXPROCS and Parallel: 1 is the serial pool.
func TestParallelDefault(t *testing.T) {
	if cap(NewRunner(Options{}).sem) < 1 {
		t.Fatal("default pool must have at least one worker")
	}
	if got := cap(NewRunner(Options{Parallel: 1}).sem); got != 1 {
		t.Fatalf("Parallel: 1 pool size = %d", got)
	}
	if got := cap(NewRunner(Options{Parallel: 7}).sem); got != 7 {
		t.Fatalf("Parallel: 7 pool size = %d", got)
	}
}
