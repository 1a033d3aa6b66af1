// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment function returns a structured Result that
// renders to the same rows/series the paper reports; cmd/figures and the
// repository's benchmark harness drive them.
//
// Workloads default to the calibrated synthetic traces (internal/trace),
// which are fitted to the paper's own characterisation of SPEC CINT2000;
// Options.UseKernels switches to the hand-written execution-driven
// kernels (internal/workloads) instead.
//
// Independent (benchmark, configuration) simulations fan out over a
// bounded worker pool (Options.Parallel); the memo cache deduplicates
// concurrent requests for the same simulation, so a shared configuration
// (every figure needs the base machine) runs exactly once no matter how
// many experiments ask for it, and results are bit-identical to a serial
// sweep — each simulation owns its seeded RNG and never shares mutable
// state. Concurrency lives entirely in this sweep layer: the simulation
// core (internal/uarch, internal/trace, internal/vm) is single-threaded
// by policy, enforced by hpvet's determinism analyzer.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"halfprice/internal/sample"
	"halfprice/internal/stats"
	"halfprice/internal/store"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// Observer receives sweep lifecycle events from a Runner. Implementations
// must be safe for concurrent use; internal/progress provides the
// standard one (live TTY status line, ETA, aggregate simulated-instruction
// throughput, and an NDJSON event stream). In-memory memo hits are
// silent; runs served from the durable result store (Options.Store) are
// reported as queued and then cache-hit — see CachedObserver — so a
// resumed sweep still accounts for every run it skipped.
type Observer interface {
	// RunQueued fires when a simulation is first requested (before it
	// waits for a worker slot).
	RunQueued(bench, config string, insts uint64)
	// RunStarted fires when the simulation acquires a worker and begins.
	RunStarted(bench, config string, insts uint64)
	// RunFinished fires when the simulation completes; insts is the
	// number of dynamic instructions simulated (budget incl. warmup).
	RunFinished(bench, config string, insts uint64)
}

// Options configures an experiment run.
type Options struct {
	// Insts bounds the dynamic instructions simulated per benchmark
	// (default 200000; the paper runs billions — the distributions
	// stabilise far earlier at this scale).
	Insts uint64
	// Benchmarks restricts the benchmark set (default: all twelve).
	Benchmarks []string
	// UseKernels selects the execution-driven assembly kernels instead
	// of the calibrated synthetic traces.
	UseKernels bool
	// Warmup discards the first N committed instructions' statistics
	// (caches and predictors stay warm); it is added on top of Insts, so
	// Insts instructions are always measured.
	Warmup uint64
	// Parallel bounds the number of simulations in flight at once
	// (cmd flag -j). 0 means runtime.GOMAXPROCS(0); 1 reproduces the
	// serial sweep exactly (and bit-identically — see the package doc).
	// With a remote Backend it bounds outstanding dispatches instead, so
	// it may usefully exceed the local core count.
	Parallel int
	// Observer, when non-nil, receives per-run start/finish events.
	Observer Observer
	// Backend executes individual simulation requests. nil selects the
	// in-process LocalBackend; internal/dist's Coordinator plugs a
	// worker fleet in here (cmd flag -workers) with zero changes to
	// experiment code.
	Backend Backend
	// Store, when non-nil, adds a durable on-disk result tier between
	// the in-memory memo and the Backend (cmd flags -cache-dir and
	// -no-cache): results land on disk as they complete, so a killed
	// sweep resumes from checkpoint — requests whose result is already
	// stored are served from disk (reported via Runner.StoreHits and
	// the Observer's cache-hit events) instead of simulating again,
	// locally or on the fleet.
	Store *store.Store
	// Sample, when non-nil, switches every simulation to sampled mode
	// (cmd flag -sample): phase detection picks representative windows,
	// only those run through the detailed pipeline, and Stats are
	// extrapolated with confidence intervals. Mutually exclusive with
	// Warmup — the sample spec owns warmup. Sampled results use distinct
	// memo and store keys, so they never alias full runs.
	Sample *sample.Spec
}

func (o Options) insts() uint64 {
	if o.Insts == 0 {
		return 200000
	}
	return o.Insts
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) == 0 {
		return trace.BenchmarkNames
	}
	return o.Benchmarks
}

func (o Options) parallel() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

func (o Options) backend() Backend {
	if o.Backend == nil {
		return LocalBackend{}
	}
	return o.Backend
}

// Runner executes simulations with memoisation, so experiments that share
// a configuration (every figure needs the base machine) run it once —
// including when they ask concurrently: the first request simulates, every
// later one waits for the same entry (singleflight). In sampled mode a
// second memo shares each stream's window plan between the configurations
// that read the same one (see planKey). Methods are safe for concurrent
// use.
type Runner struct {
	opts    Options
	backend Backend
	sem     chan struct{} // bounds simulations in flight

	runs  *store.Memo[runKey, *uarch.Stats]
	plans *store.Memo[planKey, *windowPlan]

	sims      atomic.Uint64 // simulations actually executed
	hits      atomic.Uint64 // requests served from the memo (or by waiting)
	storeHits atomic.Uint64 // requests served from the durable result store
}

type runKey struct {
	bench string
	cfg   uarch.Config
	// sampled/sample keep sampled runs distinct from full runs of the
	// same machine in the in-memory memo, mirroring the Request.Sample
	// distinction in the durable store key.
	sampled bool
	sample  sample.Spec
}

// panicBox carries the first panic raised inside a fan-out's worker
// goroutines so the coordinating goroutine can re-raise it after
// waiting — a panicking experiment must surface on the caller's stack,
// not kill the process from an anonymous worker.
type panicBox struct {
	once sync.Once
	v    any
}

// capture is deferred inside each worker goroutine, below the
// WaitGroup.Done defer so it runs first.
func (b *panicBox) capture() {
	if p := recover(); p != nil {
		b.once.Do(func() { b.v = p })
	}
}

// mustResume re-raises the captured panic, if any, on the caller.
func (b *panicBox) mustResume() {
	if b.v != nil {
		panic(b.v)
	}
}

// NewRunner returns a runner for the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:    opts,
		backend: opts.backend(),
		sem:     make(chan struct{}, opts.parallel()),
		runs:    store.NewMemo[runKey, *uarch.Stats](0),
		plans:   store.NewMemo[planKey, *windowPlan](0),
	}
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Sims returns the number of simulations actually executed so far.
func (r *Runner) Sims() uint64 { return r.sims.Load() }

// Hits returns the number of requests served by the memo cache, counting
// singleflight waits on a simulation another experiment already started.
func (r *Runner) Hits() uint64 { return r.hits.Load() }

// StoreHits returns the number of requests served from the durable
// on-disk result store (Options.Store) — completed simulations a
// resumed sweep skipped instead of recomputing.
func (r *Runner) StoreHits() uint64 { return r.storeHits.Load() }

// config returns the machine configuration for a width with a mutation.
func config(width int, mutate func(*uarch.Config)) uarch.Config {
	var cfg uarch.Config
	if width == 8 {
		cfg = uarch.Config8Wide()
	} else {
		cfg = uarch.Config4Wide()
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// configLabel is the short human-readable run descriptor used in
// progress events: width plus the non-default scheme knobs.
func configLabel(cfg uarch.Config) string {
	return fmt.Sprintf("%dw %v/%v/%v", cfg.Width, cfg.Wakeup, cfg.Regfile, cfg.Recovery)
}

// Run simulates one benchmark on one configuration (memoised and
// deduplicated; safe to call from many goroutines).
func (r *Runner) Run(bench string, width int, mutate func(*uarch.Config)) *uarch.Stats {
	mustf(r.opts.Sample == nil || r.opts.Warmup == 0,
		"experiments: Options.Sample and Options.Warmup are mutually exclusive (the sample spec owns warmup)")
	cfg := config(width, mutate)
	cfg.WarmupInsts = r.opts.Warmup
	key := runKey{bench: bench, cfg: cfg}
	if r.opts.Sample != nil {
		key.sampled = true
		key.sample = *r.opts.Sample
	}

	st, err, joined := r.runs.Do(key, func() (*uarch.Stats, error) {
		return r.simulate(Request{Bench: bench, Config: cfg, Budget: r.opts.insts() + r.opts.Warmup,
			UseKernels: r.opts.UseKernels, Sample: r.opts.Sample, plans: r.plans})
	})
	mustf(err == nil, "experiments: %v", err)
	if joined {
		r.hits.Add(1)
	}
	return st
}

// simulate runs one memo miss through the durable store and the backend.
// A result checkpointed by an earlier (possibly killed) sweep is served
// without queueing for a worker slot; the observer sees the run queued
// and then cache-hit, so a resumed sweep's progress still accounts for
// every run. Otherwise the request takes a slot first and the store's
// advisory lock second, so a sweep's many queued requests lock only the
// keys it is about to compute and a second sweep sharing the cache
// directory takes the rest; a loser of that election is served the
// winner's result.
func (r *Runner) simulate(req Request) (*uarch.Stats, error) {
	obs := r.opts.Observer
	key := req.Key()
	if obs != nil {
		obs.RunQueued(req.Bench, req.Label(), req.Budget)
	}
	if st, ok := r.opts.Store.Get(key); ok {
		NotifyCached(obs, req.Bench, req.Label(), req.Budget)
		r.storeHits.Add(1)
		return st, nil
	}
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	// The backend fires the started/finished observer events: the local
	// backend around the in-process simulation, the distributed one when
	// its worker streams them back.
	st, cached, err := r.opts.Store.GetOrCompute(key, func() (*uarch.Stats, error) {
		return r.backend.Execute(context.Background(), req, obs)
	})
	switch {
	case err != nil:
		return nil, err
	case cached:
		NotifyCached(obs, req.Bench, req.Label(), req.Budget)
		r.storeHits.Add(1)
	default:
		r.sims.Add(1)
	}
	return st, nil
}

// Base simulates the baseline machine.
func (r *Runner) Base(bench string, width int) *uarch.Stats {
	return r.Run(bench, width, nil)
}

// Warm fans the baseline simulation of every configured benchmark at the
// given widths out over the worker pool and waits for all of them, so a
// subsequent serial read path (cmd/calibrate's dashboard loop) hits the
// memo cache instead of simulating one benchmark at a time.
func (r *Runner) Warm(widths ...int) {
	var wg sync.WaitGroup
	var pb panicBox
	for _, w := range widths {
		for _, b := range r.opts.benchmarks() {
			wg.Add(1)
			go func(b string, w int) {
				defer wg.Done()
				defer pb.capture()
				r.Base(b, w)
			}(b, w)
		}
	}
	wg.Wait()
	pb.mustResume()
}

// perBench evaluates one value for every benchmark, fanning the
// evaluations out concurrently; the worker pool bounds how many
// simulations actually run at once. Values land at their benchmark's
// index, so the series order is identical to a serial sweep.
func (r *Runner) perBench(f func(bench string) float64) []float64 {
	benches := r.opts.benchmarks()
	out := make([]float64, len(benches))
	var wg sync.WaitGroup
	var pb panicBox
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			defer pb.capture()
			out[i] = f(b)
		}(i, b)
	}
	wg.Wait()
	pb.mustResume()
	return out
}

// collect runs the experiment constructors concurrently and returns their
// results in argument order. Experiments share the memo cache, so common
// configurations (the base machines) still simulate exactly once.
func (r *Runner) collect(fs []func() *Result) []*Result {
	out := make([]*Result, len(fs))
	var wg sync.WaitGroup
	var pb panicBox
	for i, f := range fs {
		wg.Add(1)
		go func(i int, f func() *Result) {
			defer wg.Done()
			defer pb.capture()
			out[i] = f()
		}(i, f)
	}
	wg.Wait()
	pb.mustResume()
	return out
}

// Series is one labelled value-per-benchmark column of a Result.
type Series struct {
	Label  string
	Values []float64
}

// Result is one reproduced table or figure.
type Result struct {
	ID         string // e.g. "Figure 14"
	Title      string
	Benchmarks []string
	Series     []Series
	Notes      string
}

// Get returns the value of the labelled series for a benchmark.
func (res *Result) Get(label, bench string) (float64, bool) {
	bi := -1
	for i, b := range res.Benchmarks {
		if b == bench {
			bi = i
			break
		}
	}
	if bi < 0 {
		return 0, false
	}
	for _, s := range res.Series {
		if s.Label == label {
			return s.Values[bi], true
		}
	}
	return 0, false
}

// Mean returns the arithmetic mean of the labelled series.
func (res *Result) Mean(label string) (float64, bool) {
	for _, s := range res.Series {
		if s.Label == label {
			return stats.Mean(s.Values), true
		}
	}
	return 0, false
}

// Min returns the minimum of the labelled series.
func (res *Result) Min(label string) (float64, bool) {
	for _, s := range res.Series {
		if s.Label == label {
			return stats.Min(s.Values), true
		}
	}
	return 0, false
}

// Table renders the result as a text table with one row per benchmark and
// a final mean row.
func (res *Result) Table() *stats.Table {
	cols := make([]string, 0, len(res.Series)+1)
	cols = append(cols, "benchmark")
	for _, s := range res.Series {
		cols = append(cols, s.Label)
	}
	t := stats.NewTable(fmt.Sprintf("%s: %s", res.ID, res.Title), cols...)
	for i, b := range res.Benchmarks {
		cells := make([]interface{}, 0, len(cols))
		cells = append(cells, b)
		for _, s := range res.Series {
			cells = append(cells, s.Values[i])
		}
		t.AddRowf(cells...)
	}
	mean := make([]interface{}, 0, len(cols))
	mean = append(mean, "MEAN")
	for _, s := range res.Series {
		mean = append(mean, stats.Mean(s.Values))
	}
	t.AddRowf(mean...)
	return t
}

// String renders the result (table plus notes).
func (res *Result) String() string {
	s := res.Table().String()
	if res.Notes != "" {
		s += "note: " + res.Notes + "\n"
	}
	return s
}
