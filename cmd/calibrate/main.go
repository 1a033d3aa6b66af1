// Command calibrate prints the workload-calibration dashboard: every
// synthetic profile's measured behaviour next to the paper's reference
// values, with deviations. Use it after editing
// internal/trace/profiles.go to re-fit a benchmark.
//
// Usage:
//
//	calibrate [-insts n] [-bench list] [-j n] [-quiet] [-progress-json f]
//	          [-workers host1:port,host2:port] [-registry f]
//	          [-worker-timeout d] [-token s] [-tls-ca f]
//	          [-health-interval d] [-cache-dir d] [-no-cache]
//
// The 24 base simulations (12 benchmarks x 2 widths) fan out over a
// bounded worker pool before the dashboard renders serially from the
// memo cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"halfprice"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/progress"
	"halfprice/internal/store"
	"halfprice/internal/trace"
)

func main() {
	insts := flag.Uint64("insts", 300000, "instructions per run")
	benchList := flag.String("bench", "", "comma-separated benchmark subset")
	par := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	progressJSON := flag.String("progress-json", "", "write NDJSON progress events to this file (\"-\" = stderr)")
	dflags := dist.AddFlags()
	cacheDir := flag.String("cache-dir", store.DefaultDir(), "durable result-store directory (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "bypass the durable result store")
	flag.Parse()

	opts := halfprice.Options{Insts: *insts, Parallel: *par}
	opts.Store = store.FromFlags(*cacheDir, *noCache)
	coord, closeCoord, derr := dflags.Coordinator()
	if derr != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", derr)
		os.Exit(2)
	}
	defer closeCoord()
	if coord != nil {
		opts.Backend = coord
	}
	benches := halfprice.Benchmarks()
	if *benchList != "" {
		benches = strings.Split(*benchList, ",")
		opts.Benchmarks = benches
	}
	tracker, closeProgress, err := progress.FromFlags(*quiet, *progressJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(2)
	}
	defer closeProgress()
	if tracker != nil {
		opts.Observer = tracker
	}
	r := experiments.NewRunner(opts)
	r.Warm(4, 8)

	fmt.Printf("%-8s %18s %18s %7s %7s %7s %7s %7s %7s\n",
		"bench", "IPC4 (paper,dev)", "IPC8 (paper,dev)", "mispr", "2srcF", "2src", "0rdy", "simult", "same")
	for _, b := range benches {
		paper, ok := trace.BaseIPCPaper[b]
		if !ok {
			fmt.Fprintf(os.Stderr, "calibrate: unknown benchmark %q\n", b)
			os.Exit(2)
		}
		s4 := r.Base(b, 4)
		s8 := r.Base(b, 8)
		fmt.Printf("%-8s %5.2f (%4.2f,%+4.0f%%) %5.2f (%4.2f,%+4.0f%%) %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
			b,
			s4.IPC(), paper[0], 100*(s4.IPC()-paper[0])/paper[0],
			s8.IPC(), paper[1], 100*(s8.IPC()-paper[1])/paper[1],
			100*s4.MispredictRate(),
			100*s4.Frac2SourceFormat(),
			100*s4.Frac2Source(),
			100*s4.FracTwoPending(),
			100*s4.FracSimultaneous(),
			100*s4.OrderSameFrac())
	}
	fmt.Println()
	fmt.Println("paper bands: 2srcF 18-36%, 2src 6-23%, 0rdy 4-16%, simult <3%, same 81-98%")
}
