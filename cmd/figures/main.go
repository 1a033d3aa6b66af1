// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures [flags]
//
//	-fig id      which artifact: all (default), t2, 2, 3, 4, 6, t3, 7,
//	             10, 14, 15, 16, timing, counters, a1..a10, cpi, ablations
//	-insts n     dynamic instructions per benchmark run (default 500000)
//	-bench list  comma-separated benchmark subset (default: all twelve)
//	-kernels     drive the execution-driven assembly kernels instead of
//	             the calibrated synthetic traces
//	-j n         max concurrent simulations (default GOMAXPROCS; 1 = serial)
//	-quiet       suppress the live progress line on stderr
//	-progress-json f  write NDJSON progress events to f ("-" = stderr)
//	-workers list     comma-separated sweepd worker addresses; simulations
//	                  shard across the fleet (load-aware) and fall back to
//	                  local execution when no worker is reachable
//	-registry f       worker registry (file or http(s) endpoint), re-read
//	                  while the sweep runs so workers join and leave
//	-worker-timeout d per-request timeout against remote workers
//	-token s          shared auth token presented to workers
//	                  (default $HALFPRICE_TOKEN)
//	-tls-ca f         CA certificate(s) to trust for https:// workers
//	-health-interval d fleet health-probe and registry re-read period
//	-cache-dir d      durable result store: completed simulations are
//	                  checkpointed there and a rerun (or a sweep resumed
//	                  after a crash) skips them as cache hits
//	-no-cache         bypass the durable result store
//	-sample           sampled simulation: detect phases, simulate only
//	                  representative windows, extrapolate whole-run stats
//	                  with 95% confidence columns in t2/16
//	-sample-interval n  sampling interval / window length (default 2000)
//	-sample-warmup n    detailed warmup per window (default 500)
//	-sample-phases n    max phases per workload (default 6)
//	-sample-windows n   detailed windows per phase (default 4)
//	-sample-seed n      phase-clustering seed (default 1)
//
// Output is one text table per artifact in the paper's layout, with a
// MEAN row appended; the notes line records the paper's reference values.
// Independent (benchmark, config) simulations fan out over a bounded
// worker pool; results are bit-identical at every -j.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"halfprice"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/progress"
	"halfprice/internal/sample"
	"halfprice/internal/store"
)

func main() {
	fig := flag.String("fig", "all", "artifact: all|t2|2|3|4|6|t3|7|10|14|15|16|timing|counters|a1..a10|cpi|ablations")
	insts := flag.Uint64("insts", 500000, "instructions per benchmark run")
	benchList := flag.String("bench", "", "comma-separated benchmark subset")
	kernels := flag.Bool("kernels", false, "use execution-driven kernels")
	format := flag.String("format", "table", "output format: table|csv|json")
	par := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	progressJSON := flag.String("progress-json", "", "write NDJSON progress events to this file (\"-\" = stderr)")
	dflags := dist.AddFlags()
	sflags := sample.AddFlags()
	cacheDir := flag.String("cache-dir", store.DefaultDir(), "durable result-store directory (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "bypass the durable result store")
	flag.Parse()

	opts := halfprice.Options{Insts: *insts, UseKernels: *kernels, Parallel: *par}
	opts.Store = store.FromFlags(*cacheDir, *noCache)
	spec, serr := sflags()
	if serr != nil {
		fmt.Fprintln(os.Stderr, "figures:", serr)
		os.Exit(2)
	}
	opts.Sample = spec
	coord, closeCoord, derr := dflags.Coordinator()
	if derr != nil {
		fmt.Fprintln(os.Stderr, "figures:", derr)
		os.Exit(2)
	}
	defer closeCoord()
	if coord != nil {
		opts.Backend = coord
	}
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
		for _, b := range opts.Benchmarks {
			if _, err := halfprice.BenchmarkProfile(b); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(2)
			}
		}
	}
	tracker, closeProgress, err := progress.FromFlags(*quiet, *progressJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	defer closeProgress()
	if tracker != nil {
		opts.Observer = tracker
	}
	r := halfprice.NewRunner(opts)

	artifacts := map[string]func() *halfprice.Result{
		"t2":       r.Table2BaseIPC,
		"2":        r.Figure2Formats,
		"3":        r.Figure3Breakdown,
		"4":        r.Figure4ReadyAtInsert,
		"6":        r.Figure6WakeupSlack,
		"t3":       r.Table3OperandOrder,
		"7":        r.Figure7PredictorAccuracy,
		"10":       r.Figure10RegAccess,
		"14":       r.Figure14SeqWakeup,
		"15":       r.Figure15SeqRegAccess,
		"16":       r.Figure16Combined,
		"timing":   experiments.TimingClaims,
		"counters": r.EventCounters,
		"a1":       r.AblationSlowBus,
		"a2":       r.AblationRecovery,
		"a3":       r.AblationPredictors,
		"a4":       r.AblationExtensions,
		"a5":       r.AblationFrequency,
		"a6":       r.AblationEnergy,
		"a7":       r.AblationSelect,
		"a8":       r.AblationSchedulerDesigns,
		"a9":       r.AblationBranchNoise,
		"a10":      r.AblationPrefetch,
		"cpi":      r.CPIStacks,
	}

	emit := func(res *halfprice.Result) {
		switch *format {
		case "table":
			fmt.Println(res)
		case "csv":
			if err := res.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		case "json":
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
			fmt.Println(string(data))
		default:
			fmt.Fprintf(os.Stderr, "figures: unknown format %q\n", *format)
			os.Exit(2)
		}
	}

	switch *fig {
	case "all":
		for _, res := range r.All() {
			emit(res)
		}
	case "ablations":
		for _, res := range r.Ablations() {
			emit(res)
		}
	default:
		f, ok := artifacts[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown artifact %q\n", *fig)
			os.Exit(2)
		}
		emit(f())
	}
}
