// Package hpbench is the repository benchmark behind cmd/hpbench and the
// root BENCHMARK.json: four workloads that drive the simulator, the
// experiment sweep, the result store and the service stack end to end,
// each checked for correct output and measured with tracing off, plus a
// traced mode that reports where the time went layer by layer.
//
// The benchmark reaches every layer only through its public API and the
// seams the layers already export: trace.Stream, experiments.Backend and
// Observer, store.Options.FS and serve.Options.FS (chaos.FS),
// dist.Options.Transport, dist.Server.Handler, the hpserve HTTP API and
// runtime/metrics. It changes nothing in the code it measures.
//
// Every run also prints stats_sha256, a digest of the simulated Stats
// the workload produced. A change that only makes the host faster leaves
// the digest unchanged; a change to the model moves it.
package hpbench

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// RunSeconds is the measured window of one run (BENCHMARK.json
// run_seconds and the -seconds default).
const RunSeconds = 20

// Workload names one benchmark workload and records why it exists.
type Workload struct {
	Name string
	Why  string
}

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
var Workloads = []Workload{
	{"core", "uarch.New+Run over gzip/mcf/crafty/vpr x 4/8-wide x 4 schemes: pipeline and trace generation do almost all the work"},
	{"report-full", "cold experiments.Runner.All over all 12 benchmarks into a fresh store, then warm replays: sweep engine, memo and store"},
	{"report-sampled", "All() in sampled mode over 4 benchmarks: profiling and phase clustering dominate, detailed windows cover about 12% of instructions"},
	{"serve", "assumed mix, no traffic logs: 2 tenants run closed-loop 10-job sweeps via hpserve, coordinator, 2 sweepd; 60/30/10% interactive/batch/background at 50k/200k/400k insts; 30% from a 20-config hot set"},
}

// Metric describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd lists the metrics an untraced run prints. Every workload
// reports all of them.
//
// A bound must cover the spread of ten consecutive runs on different
// seeds. On a shared two-vCPU VM that spread is set by neighbours, not
// seeds: the simulator ran up to 30% slower for a minute or more at a
// time while a hashing loop beside it slowed by 5%, and report-full,
// which takes no seed, spread as widely as the seeded workloads. The
// interquartile range of wall_s over ten runs reached 7–22% of its
// median, so the times carry the largest bound allowed, although the
// medians of two interleaved sets of runs agreed within 5%. The
// allocation metrics barely depend on the host (0.0–3.5% spread, serve
// the widest) and catch regressions the times cannot.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_minsts_per_s", "Minst/s", "higher", 0.25},
	{"alloc_bytes_per_inst", "B/inst", "lower", 0.10},
	{"allocs_per_kinst", "1/kinst", "lower", 0.10},
}

// PerLayer lists the metrics a traced run prints. A layer the workload
// does not reach reports 0. Times and counts are per unit of work (one
// matrix pass, one regeneration, or one sweep); percentiles, ratios and
// rates are not scaled.
var PerLayer = []Metric{
	{"trace.next_ns", "ns", "lower", 0},
	{"trace.self_s", "s", "lower", 0},
	{"uarch.self_s", "s", "lower", 0},
	{"uarch.ns_per_cycle", "ns", "lower", 0},
	{"uarch.new_us", "us", "lower", 0},
	{"uarch.cycles", "count", "lower", 0},
	{"uarch.insts", "count", "higher", 0},
	{"sample.profile_s", "s", "lower", 0},
	{"sample.plan_s", "s", "lower", 0},
	{"sample.detail_s", "s", "lower", 0},
	{"sample.self_s", "s", "lower", 0},
	{"sample.detailed_frac", "ratio", "lower", 0},
	{"sample.phases_mean", "count", "higher", 0},
	{"sample.ipc_ci95_pct", "%", "lower", 0},
	{"experiments.requests", "count", "higher", 0},
	{"experiments.sims", "count", "lower", 0},
	{"experiments.memo_hits", "count", "higher", 0},
	{"experiments.store_hits", "count", "higher", 0},
	{"experiments.dedup_ratio", "ratio", "higher", 0},
	{"experiments.queue_wait_s", "s", "lower", 0},
	{"experiments.exec_s", "s", "lower", 0},
	{"experiments.exec_ms_p50", "ms", "lower", 0},
	{"experiments.exec_ms_p95", "ms", "lower", 0},
	{"experiments.busy_frac", "ratio", "higher", 0},
	{"experiments.self_s", "s", "lower", 0},
	{"experiments.warm_ms", "ms", "lower", 0},
	{"store.hits", "count", "higher", 0},
	{"store.misses", "count", "lower", 0},
	{"store.writes", "count", "lower", 0},
	{"store.quarantined", "count", "lower", 0},
	{"store.read_s", "s", "lower", 0},
	{"store.write_s", "s", "lower", 0},
	{"store.fsync_s", "s", "lower", 0},
	{"store.rename_s", "s", "lower", 0},
	{"store.fs_ops", "count", "lower", 0},
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.submit_ms_p95", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p95", "ms", "lower", 0},
	{"serve.job_ms_p50", "ms", "lower", 0},
	{"serve.job_ms_p95", "ms", "lower", 0},
	{"serve.interactive_ms_p50", "ms", "lower", 0},
	{"serve.cdn_hit_frac", "ratio", "higher", 0},
	{"serve.journal_fsync_s", "s", "lower", 0},
	{"serve.dispatched", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"dist.rpcs", "count", "lower", 0},
	{"dist.rpc_ms_p50", "ms", "lower", 0},
	{"dist.rpc_ms_p95", "ms", "lower", 0},
	{"dist.worker_ms_p50", "ms", "lower", 0},
	{"dist.worker_ms_p95", "ms", "lower", 0},
	{"dist.probes", "count", "lower", 0},
	{"dist.retries", "count", "lower", 0},
	{"dist.hedges", "count", "lower", 0},
	{"dist.hedge_wins", "count", "higher", 0},
	{"dist.worker_sims", "count", "lower", 0},
	{"dist.worker_memo_hits", "count", "higher", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.alloc_bytes", "B", "lower", 0},
	{"runtime.max_rss_mb", "MB", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
	{"bench.span_cover", "ratio", "higher", 0},
}

// Config selects one benchmark run.
type Config struct {
	Workload string
	// Seed generates the workload's inputs; the same seed always gives
	// the same inputs.
	Seed uint64
	// Seconds is the measured window. Each workload still completes a
	// minimum number of units, so a zero window runs the minimum.
	Seconds float64
	// Trace selects the per-layer run: units alternate between tracing
	// off and on, and the per-layer metrics come from the traced units.
	Trace bool
	// Dir is where runs stage their result stores and journals. Run
	// creates a private subdirectory and removes it before returning.
	Dir string

	sizes sizes // zero value: defaultSizes
}

// Result is one run's outcome.
type Result struct {
	Workload  string
	Attempted int
	Failed    int
	// Problems lists failed correctness checks; a correct run has none.
	Problems []string
	// Metrics holds the end-to-end metrics (untraced run) or the
	// per-layer ones (traced run), by catalogue name.
	Metrics map[string]float64
	// Notes are human-readable details, such as the percentile and
	// sample count behind each tail metric.
	Notes []string
	// StatsSHA256 digests the simulated Stats the run checked.
	StatsSHA256 string
	// Trace holds the recorded spans of a traced run.
	Trace *Tracer

	mu sync.Mutex // guards the counts and Problems: checks run on sweep goroutines
}

func (r *Result) count(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted += attempted
	r.Failed += failed
}

// Correct reports whether every correctness check passed.
func (r *Result) Correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

func (r *Result) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// env is the state one workload run shares with its helpers.
type env struct {
	cfg   Config
	sz    sizes
	res   *Result
	tr    *Tracer // nil for untraced runs
	sim   simCounters
	dir   string
	procs int // simulations in flight and client connections: nproc
}

// window reports whether another unit should start: always until min
// units ran, then while the measured window has time left.
func (e *env) window(start time.Time, units, min int) bool {
	return units < min || time.Since(start).Seconds() < e.cfg.Seconds
}

// tracedUnit reports whether unit i of a traced run records spans. Units
// alternate, starting untraced, so the traced and untraced medians come
// from interleaved units and host drift cancels.
func (e *env) tracedUnit(i int) bool { return e.tr != nil && i%2 == 1 }

// Run executes one workload and returns its result. An error means the
// run could not be set up or measured at all; failed correctness checks
// are reported in the Result instead.
func Run(cfg Config) (*Result, error) {
	sz := cfg.sizes
	if sz.minUnits == 0 {
		sz = defaultSizes()
	}
	if cfg.Dir == "" {
		cfg.Dir = os.TempDir()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("hpbench: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.Dir, "run-*")
	if err != nil {
		return nil, fmt.Errorf("hpbench: %w", err)
	}
	defer os.RemoveAll(dir)

	e := &env{
		cfg:   cfg,
		sz:    sz,
		res:   &Result{Workload: cfg.Workload, Metrics: map[string]float64{}},
		dir:   dir,
		procs: runtime.GOMAXPROCS(0),
	}
	if cfg.Trace {
		e.tr = NewTracer()
		e.res.Trace = e.tr
		for _, m := range PerLayer {
			e.res.Metrics[m.Name] = 0
		}
	}
	switch cfg.Workload {
	case "core":
		err = runCore(e)
	case "report-full":
		err = runReport(e, e.sz.full)
	case "report-sampled":
		err = runReport(e, e.sz.sampled)
	case "serve":
		err = runServe(e)
	default:
		err = fmt.Errorf("unknown workload %q (want %s)", cfg.Workload, workloadNames())
	}
	if err != nil {
		return nil, fmt.Errorf("hpbench: %s: %w", cfg.Workload, err)
	}
	if !cfg.Trace {
		for _, m := range EndToEnd {
			if _, ok := e.res.Metrics[m.Name]; !ok {
				return nil, fmt.Errorf("hpbench: %s did not measure %s", cfg.Workload, m.Name)
			}
		}
	}
	return e.res, nil
}

func workloadNames() string {
	s := ""
	for i, w := range Workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}
