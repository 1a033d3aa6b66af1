// Command halfprice runs one simulation of the half-price architecture
// and prints its measurements.
//
// Usage:
//
//	halfprice [flags]
//
//	-bench name     benchmark (bzip..vpr; default gzip)
//	-width n        machine width: 4 or 8 (default 4)
//	-insts n        dynamic instructions to simulate (default 500000)
//	-wakeup s       conventional | sequential | tagelim
//	-regfile s      2port | sequential | extrastage | crossbar
//	-recovery s     nonselective | selective
//	-pred s         bimodal | static
//	-pred-entries n operand predictor entries (power of two, default 1024)
//	-kernel         run the execution-driven assembly kernel instead of
//	                the calibrated synthetic trace
//	-list           list benchmarks and exit
//	-quiet          suppress the progress summary on stderr
//	-progress-json f  write NDJSON progress events to f ("-" = stderr)
//	-workers list     comma-separated sweepd worker addresses; the run is
//	                  dispatched to the fleet (local fallback when none is
//	                  reachable). -hot and -profile always run locally.
//	-registry f       worker registry (file or http(s) endpoint)
//	-worker-timeout d per-request timeout against remote workers
//	-token s          shared auth token presented to workers
//	                  (default $HALFPRICE_TOKEN)
//	-tls-ca f         CA certificate(s) to trust for https:// workers
//	-health-interval d fleet health-probe and registry re-read period
//	-cache-dir d      durable result store: a previous identical run (by
//	                  any command) is served from disk as a cache hit.
//	                  -hot and -profile runs are never cached.
//	-no-cache         bypass the durable result store
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"halfprice"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/progress"
	"halfprice/internal/store"
)

func main() {
	bench := flag.String("bench", "gzip", "benchmark name")
	width := flag.Int("width", 4, "machine width (4 or 8)")
	insts := flag.Uint64("insts", 500000, "dynamic instructions to simulate")
	wakeup := flag.String("wakeup", "conventional", "wakeup scheme: conventional|sequential|tagelim")
	regfile := flag.String("regfile", "2port", "register file: 2port|sequential|extrastage|crossbar")
	recovery := flag.String("recovery", "nonselective", "replay: nonselective|selective")
	pred := flag.String("pred", "bimodal", "operand predictor: bimodal|static")
	predEntries := flag.Int("pred-entries", 1024, "operand predictor entries")
	kernel := flag.Bool("kernel", false, "run the execution-driven assembly kernel")
	list := flag.Bool("list", false, "list benchmarks and exit")
	hot := flag.Int("hot", 0, "print the N hottest PCs per event class")
	warmup := flag.Uint64("warmup", 0, "instructions to warm up before measuring")
	profilePath := flag.String("profile", "", "run a custom workload profile from a JSON file")
	dumpProfile := flag.String("dump-profile", "", "print the named benchmark's profile as JSON and exit")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	progressJSON := flag.String("progress-json", "", "write NDJSON progress events to this file (\"-\" = stderr)")
	dflags := dist.AddFlags()
	cacheDir := flag.String("cache-dir", store.DefaultDir(), "durable result-store directory (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "bypass the durable result store")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(halfprice.Benchmarks(), " "))
		return
	}
	if *dumpProfile != "" {
		p, err := halfprice.BenchmarkProfile(*dumpProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "halfprice:", err)
			os.Exit(2)
		}
		if err := halfprice.WriteProfile(os.Stdout, p); err != nil {
			fmt.Fprintln(os.Stderr, "halfprice:", err)
			os.Exit(1)
		}
		return
	}

	tracker, closeProgress, err := progress.FromFlags(*quiet, *progressJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "halfprice:", err)
		os.Exit(2)
	}
	defer closeProgress()

	cfg, err := buildConfig(*width, *wakeup, *regfile, *recovery, *pred, *predEntries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "halfprice:", err)
		os.Exit(2)
	}

	cfg.WarmupInsts = *warmup

	if *profilePath != "" {
		if dflags.Enabled() {
			fmt.Fprintln(os.Stderr, "halfprice: custom profiles simulate locally; ignoring -workers/-registry")
		}
		f, err := os.Open(*profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "halfprice:", err)
			os.Exit(2)
		}
		p, err := halfprice.ReadProfile(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "halfprice:", err)
			os.Exit(2)
		}
		st := observe(tracker, p.Name, cfg, *insts+*warmup, func() *halfprice.Stats {
			return halfprice.SimulateProfile(cfg, p, *insts+*warmup)
		})
		printStats(p.Name, cfg, st)
		return
	}

	if _, err := halfprice.BenchmarkProfile(*bench); err != nil {
		fmt.Fprintln(os.Stderr, "halfprice:", err)
		os.Exit(2)
	}

	budget := *insts + *warmup
	if *hot == 0 {
		printStats(*bench, cfg, run(tracker, store.FromFlags(*cacheDir, *noCache), cfg, *bench, budget, *kernel, dflags))
		return
	}
	// Hot-spot runs bypass the result store: the Stats could be served
	// from disk, but the per-PC report they exist for cannot.
	if dflags.Enabled() {
		fmt.Fprintln(os.Stderr, "halfprice: -hot profiles locally; ignoring -workers/-registry")
	}
	var hotReport string
	st := observe(tracker, *bench, cfg, budget, func() *halfprice.Stats {
		st, report, err := halfprice.SimulateHot(cfg, *bench, budget, *kernel, *hot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "halfprice:", err)
			os.Exit(1)
		}
		hotReport = report
		return st
	})
	printStats(*bench, cfg, st)
	fmt.Print(hotReport)
}

// run executes the single plain simulation the way a sweep executes each
// of its runs: through the durable result store, on the sweepd fleet
// when -workers or -registry name one (the coordinator falls back to
// local execution when no worker is reachable) and in-process
// otherwise. A previous identical run — by this command or any sweep
// sharing the cache directory — is served from disk as a cache hit, and
// a fresh run is checkpointed for the next one.
func run(tr *progress.Tracker, cache *store.Store, cfg halfprice.Config, bench string, budget uint64, kernel bool, dflags *dist.Flags) *halfprice.Stats {
	coord, closeCoord, err := dflags.Coordinator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "halfprice:", err)
		os.Exit(2)
	}
	defer closeCoord()
	var backend experiments.Backend = experiments.LocalBackend{}
	if coord != nil {
		backend = coord
	}
	req := experiments.Request{Bench: bench, Config: cfg, Budget: budget, UseKernels: kernel}
	var obs experiments.Observer
	if tr != nil {
		obs = tr
		tr.RunQueued(bench, req.Label(), budget)
	}
	st, cached, err := cache.GetOrCompute(req.Key(), func() (*halfprice.Stats, error) {
		return backend.Execute(context.Background(), req, obs)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "halfprice:", err)
		os.Exit(1)
	}
	if cached {
		experiments.NotifyCached(obs, bench, req.Label(), budget)
	}
	return st
}

// observe wraps the command's one simulation in the same queued/start/
// finish progress events the sweep commands emit per run.
func observe(tr *progress.Tracker, bench string, cfg halfprice.Config, insts uint64, run func() *halfprice.Stats) *halfprice.Stats {
	if tr == nil {
		return run()
	}
	label := fmt.Sprintf("%dw %v/%v/%v", cfg.Width, cfg.Wakeup, cfg.Regfile, cfg.Recovery)
	tr.RunQueued(bench, label, insts)
	tr.RunStarted(bench, label, insts)
	st := run()
	tr.RunFinished(bench, label, insts)
	return st
}

func buildConfig(width int, wakeup, regfile, recovery, pred string, predEntries int) (halfprice.Config, error) {
	var cfg halfprice.Config
	switch width {
	case 4:
		cfg = halfprice.Config4Wide()
	case 8:
		cfg = halfprice.Config8Wide()
	default:
		return cfg, fmt.Errorf("width must be 4 or 8, got %d", width)
	}
	switch wakeup {
	case "conventional":
		cfg.Wakeup = halfprice.WakeupConventional
	case "sequential":
		cfg.Wakeup = halfprice.WakeupSequential
	case "tagelim":
		cfg.Wakeup = halfprice.WakeupTagElim
	default:
		return cfg, fmt.Errorf("unknown wakeup scheme %q", wakeup)
	}
	switch regfile {
	case "2port":
		cfg.Regfile = halfprice.RFTwoPort
	case "sequential":
		cfg.Regfile = halfprice.RFSequential
	case "extrastage":
		cfg.Regfile = halfprice.RFExtraStage
	case "crossbar":
		cfg.Regfile = halfprice.RFHalfCrossbar
	default:
		return cfg, fmt.Errorf("unknown register file scheme %q", regfile)
	}
	switch recovery {
	case "nonselective":
		cfg.Recovery = halfprice.RecoveryNonSelective
	case "selective":
		cfg.Recovery = halfprice.RecoverySelective
	default:
		return cfg, fmt.Errorf("unknown recovery scheme %q", recovery)
	}
	switch pred {
	case "bimodal":
		cfg.OpPred = halfprice.OpPredBimodal
	case "static":
		cfg.OpPred = halfprice.OpPredStaticRight
	default:
		return cfg, fmt.Errorf("unknown operand predictor %q", pred)
	}
	cfg.OpPredEntries = predEntries
	return cfg, nil
}

func printStats(bench string, cfg halfprice.Config, st *halfprice.Stats) {
	fmt.Printf("benchmark        %s\n", bench)
	fmt.Printf("machine          %d-wide, %d-entry window, wakeup=%v regfile=%v recovery=%v\n",
		cfg.Width, cfg.WindowSize, cfg.Wakeup, cfg.Regfile, cfg.Recovery)
	fmt.Printf("committed        %d instructions in %d cycles\n", st.Committed, st.Cycles)
	fmt.Printf("IPC              %.3f\n", st.IPC())
	fmt.Printf("2-source format  %.1f%%  (stores %.1f%%)\n", 100*st.Frac2SourceFormat(), 100*st.FracStores())
	fmt.Printf("2-source unique  %.1f%%\n", 100*st.Frac2Source())
	fmt.Printf("0-ready @insert  %.1f%% of 2-source\n", 100*st.FracTwoPending())
	fmt.Printf("simultaneous     %.1f%% of 2-pending\n", 100*st.FracSimultaneous())
	fmt.Printf("2-port need      %.1f%% of instructions\n", 100*st.FracTwoPortNeed())
	fmt.Printf("branch mispred   %.1f%%\n", 100*st.MispredictRate())
	if st.OpPredCorrect+st.OpPredIncorrect+st.OpPredSimultaneous > 0 {
		fmt.Printf("operand pred     %.1f%% correct\n", 100*st.OpPredAccuracy())
	}
	if st.SeqWakeupDelays > 0 {
		fmt.Printf("slow-bus delays  %d\n", st.SeqWakeupDelays)
	}
	if st.SeqRegAccesses > 0 {
		fmt.Printf("seq RF accesses  %d\n", st.SeqRegAccesses)
	}
	if st.TagElimMispreds > 0 {
		fmt.Printf("tag-elim faults  %d (%d squashes)\n", st.TagElimMispreds, st.TagElimSquashes)
	}
	fmt.Printf("replay squashes  %d\n", st.ReplaySquashes)
	fmt.Printf("cycle breakdown  ")
	for c := halfprice.CycleClass(0); int(c) < halfprice.NumCycleClasses; c++ {
		fmt.Printf("%s %.0f%%  ", c, 100*st.CycleFrac(c))
	}
	fmt.Println()
}
