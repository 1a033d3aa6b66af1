// Command hpbench is the repository benchmark described by the root
// BENCHMARK.json. It runs one workload in its own process, checks the
// workload's outputs, and prints every metric by name with its unit.
//
// Usage, from the repository root:
//
//	go run ./cmd/hpbench --workload core --seed 1 --seconds 20 --trace 0
//	bash cmd/hpbench/run.sh --workload core --seed 1 --seconds 20 --trace 0
//
// run.sh, the command BENCHMARK.json names, builds this package into
// .bench_build (Go caches included, so nothing is written outside the
// checkout) and runs the binary with the given flags. Flags:
//
//	--workload name   core, report-full, report-sampled or serve
//	--seed n          generates the workload's inputs (default 1)
//	--seconds n       the measured window (default 20)
//	--trace 0|1       1 = per-layer run: print the per-layer metrics and
//	                  write the spans as Chrome trace-event JSON
//	--trace-out f     trace file (default .bench_build/trace-<workload>-<seed>.json)
//	--workdir d       working space for stores and journals (default .bench_build)
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 160, "failed": 0,
//	 "metrics": {"setup_s": {"value": 0.13, "unit": "s"}, ...}}
//
// The line before it is "stats_sha256 <hex>", a digest of the simulated
// Stats the run checked. A change that only speeds the host up leaves it
// unchanged for a given workload and seed; a model change moves it.
// Human-readable metrics, notes and failed checks go to standard error.
//
// # Workloads
//
// Each workload repeats a unit of work until the window closes, and
// completes at least three units.
//
//   - core: one unit is a pass over 32 cells — gzip, mcf, crafty and vpr
//     × the 4- and 8-wide machines × the base, halfprice, tagelim and
//     pipelined-rf schemes — each uarch.New(cfg, stream).Run() over 200k
//     instructions of the benchmark's calibrated synthetic program,
//     starting at an offset --seed picks. Only New and Run are timed:
//     the stream is built and moved to its offset beforehand. The
//     pipeline and trace generation do almost all the work, and the four
//     schemes use the scheduler core differently.
//   - report-full: one unit regenerates the paper's evaluation
//     (experiments.Runner.All) over all twelve benchmarks at 30k
//     instructions into a fresh result store, with nproc simulations in
//     flight; 100 warm replays over the last store follow. This is what
//     cmd/report costs, scaled to fit the window. It has no seed input.
//   - report-sampled: one unit is All() in sampled mode with
//     sample.DefaultSpec, the validated spec, over the core's four
//     benchmarks at 500k instructions. Profiling and phase clustering
//     take most of the time; an optimisation of the detailed pipeline
//     should barely move it. It has no seed input either: a seeded
//     clustering moved its time by 11% from seed to seed.
//   - serve: an in-process hpserve wired as cmd/hpserve wires it (result
//     CDN, hedged dispatch, two token tenants) over a dist coordinator
//     and two sweepd workers with one simulation slot each, all on
//     loopback listeners. Two tenants each run closed-loop sweeps of ten
//     jobs over one keep-alive connection: submit all ten, then follow
//     each job's event stream to its end. One unit is one sweep. The mix
//     is an assumption, since no traffic logs exist: 60% interactive jobs
//     at 50k instructions, 30% batch at 200k and 10% background at 400k,
//     30% of them from a 20-config hot set both tenants share and the
//     rest with unique keys. Ten jobs is the smallest sweep that carries
//     that mix exactly (six, three and one; three hot), so every sweep
//     has the same shape. Configs are dealt from a shuffled deck of every
//     benchmark × width × scheme, so --seed orders the traffic and picks
//     the hot set without changing the mix.
//
// # End-to-end metrics (tracing off)
//
//   - setup_s: the median of nine set-ups, each everything before the
//     window: an untimed warm-up cell (core); a fresh store.Open, which
//     fingerprints the binary, and one warm-up request (report-*); the
//     listeners, coordinator, journal and one warm-up job (serve).
//   - wall_s: the median time of one unit. For core it is the sum of each
//     cell's median over passes; for serve the client times a sweep from
//     its first POST to its last terminal event.
//   - sim_minsts_per_s: instructions simulated per host second. Results
//     served from a cache do not count.
//   - alloc_bytes_per_inst and allocs_per_kinst: heap bytes and objects
//     the whole process allocated per simulated instruction over the
//     measured units (serve: the window, client included). They hardly
//     depend on the host, so they catch an allocation regression that
//     host noise would hide in the times.
//
// Checks built into every run: each core cell commits exactly its budget,
// its CPI stack sums to its cycles and its Stats repeat exactly across
// passes; every report unit and warm replay renders identical markdown,
// and every request's Stats repeat across units, traced or not; every
// sampled run carries sampling metadata with a confidence interval; a
// serve job must be accepted (201) and end done, hot-set results must be
// byte-identical across tenants, and each tenant's first four unique
// jobs must match a local experiments.Execute byte for byte.
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates its units between tracing off and on and
// reports per-layer metrics from the traced units only;
// bench.trace_overhead is the traced median unit time over the untraced
// one, minus 1. The serve workload's sweeps overlap, so there tracing
// switches every four seconds instead, the overhead compares sweeps that
// ran wholly inside one slice, and the client-observed serve.* latencies
// and the counters come from every sweep. Seconds and counts are per
// unit; percentiles, ratios and rates are not scaled. A layer the
// workload does not reach reports 0. Spans are recorded by this
// benchmark around its calls into each layer (trace.build, uarch.new,
// uarch.run, uarch.sampled, sample.profile, sample.plan,
// experiments.exec, the store's and journal's file operations, dist.rpc,
// dist.worker); Stream.Next is
// timed on every 16th call and scaled by 16. A layer's self time is its
// spans' durations minus the time their child spans cover, and
// bench.span_cover is the share of the traced units' worker time the
// layers' self times explain. runtime.* metrics come from the untraced
// units of the traced run (serve: its whole window). The catalogue, with
// units, is internal/hpbench.PerLayer and BENCHMARK.json; a *_p95 metric
// is the highest percentile up to p95 that has ten samples beyond it,
// and the run notes which one it used.
//
// # Comparing a parent and a change
//
// Check out both commits side by side and run the same workload, seed and
// window in each, alternating which side goes first, at least ten times
// with different seeds:
//
//	for seed in 1 2 3 4 5 6 7 8 9 10; do
//	  order="parent change"; [ $((seed % 2)) = 0 ] && order="change parent"
//	  for side in $order; do
//	    (cd $side && bash cmd/hpbench/run.sh --workload core --seed $seed)
//	  done
//	done
//
// The host's speed drifts over minutes, so only interleaved pairs
// compare; two batches run one after the other do not.
//
// Compare each side's median per metric against the bound in
// BENCHMARK.json, and the stats_sha256 of equal seeds: a perf-only change
// must leave it unchanged.
//
// # Reading a trace
//
// Load the --trace-out file in chrome://tracing or ui.perfetto.dev. Each
// root span and its children share a track; args carry the span id, its
// parent, the request it served and the untimed (sampled) child time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"halfprice/internal/hpbench"
)

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", hpbench.RunSeconds, "measured window in seconds")
	traced := flag.Int("trace", 0, "1 = per-layer run with spans")
	traceOut := flag.String("trace-out", "", "Chrome trace-event output for --trace 1")
	workdir := flag.String("workdir", ".bench_build", "working directory for stores and journals")
	flag.Parse()
	if *workload == "" || flag.NArg() > 0 || *seconds < 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}

	res, err := hpbench.Run(hpbench.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  float64(*seconds),
		Trace:    *traced == 1,
		Dir:      *workdir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpbench:", err)
		os.Exit(1)
	}
	if *traced == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		}
		if err := writeTrace(path, res.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "hpbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "hpbench: trace written to", path)
	}
	if err := report(res, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "hpbench:", err)
		os.Exit(1)
	}
}

func writeTrace(path string, tr *hpbench.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hpbench.WriteChrome(f, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the human-readable summary to stderr, then the digest
// line and the result JSON to stdout.
func report(res *hpbench.Result, traced bool) error {
	catalogue := hpbench.EndToEnd
	if traced {
		catalogue = hpbench.PerLayer
	}
	out := output{Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range catalogue {
		v := res.Metrics[m.Name]
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Fprintf(os.Stderr, "%-32s %14.6g %s\n", m.Name, v, m.Unit)
	}
	sort.Strings(res.Notes)
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d, correct %v\n", res.Workload, res.Attempted, res.Failed, out.Correct)
	fmt.Println("stats_sha256", res.StatsSHA256)
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
