// Command report regenerates the complete evaluation — every paper
// artifact plus the repository's ablation studies — as a single markdown
// document.
//
// Usage:
//
//	report [-o report.md] [-insts n] [-kernels] [-skip-ablations]
//	       [-j n] [-quiet] [-progress-json f]
//	       [-workers host1:port,host2:port] [-registry f]
//	       [-worker-timeout d] [-token s] [-tls-ca f]
//	       [-health-interval d] [-cache-dir d] [-no-cache]
//	       [-sample] [-sample-interval n] [-sample-warmup n]
//	       [-sample-phases n] [-sample-windows n] [-sample-seed n]
//
// With -sample the whole evaluation runs in sampled mode: phases are
// detected per workload, only representative windows are simulated in
// detail, and Table 2 / Figure 16 carry 95% confidence columns.
//
// The output is self-contained: run it after any model change to get a
// fresh paper-vs-measured report. Simulations fan out over a bounded
// worker pool (-j); the live sweep status line replaces the old
// per-artifact elapsed-time log (which survives in the per-artifact
// "done" lines below).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"halfprice"
	"halfprice/internal/dist"
	"halfprice/internal/progress"
	"halfprice/internal/sample"
	"halfprice/internal/store"
)

func main() {
	out := flag.String("o", "report.md", "output markdown file")
	insts := flag.Uint64("insts", 300000, "instructions per benchmark run")
	kernels := flag.Bool("kernels", false, "use execution-driven kernels")
	skipAbl := flag.Bool("skip-ablations", false, "omit the ablation studies")
	par := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	progressJSON := flag.String("progress-json", "", "write NDJSON progress events to this file (\"-\" = stderr)")
	dflags := dist.AddFlags()
	sflags := sample.AddFlags()
	cacheDir := flag.String("cache-dir", store.DefaultDir(), "durable result-store directory (empty disables caching)")
	noCache := flag.Bool("no-cache", false, "bypass the durable result store")
	flag.Parse()

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	defer f.Close()

	opts := halfprice.Options{Insts: *insts, UseKernels: *kernels, Parallel: *par}
	opts.Store = store.FromFlags(*cacheDir, *noCache)
	spec, serr := sflags()
	if serr != nil {
		fmt.Fprintln(os.Stderr, "report:", serr)
		os.Exit(2)
	}
	opts.Sample = spec
	coord, closeCoord, derr := dflags.Coordinator()
	if derr != nil {
		fmt.Fprintln(os.Stderr, "report:", derr)
		os.Exit(2)
	}
	defer closeCoord()
	if coord != nil {
		opts.Backend = coord
	}
	tracker, closeProgress, perr := progress.FromFlags(*quiet, *progressJSON)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "report:", perr)
		os.Exit(2)
	}
	defer closeProgress()
	if tracker != nil {
		opts.Observer = tracker
	}
	r := halfprice.NewRunner(opts)

	fmt.Fprintf(f, "# Half-Price Architecture — regenerated evaluation\n\n")
	fmt.Fprintf(f, "Generated %s · %d instructions/benchmark · workloads: %s\n\n",
		time.Now().Format(time.RFC3339), *insts, workloadKind(*kernels))
	fmt.Fprintf(f, "## Paper artifacts\n\n")
	start := time.Now()
	for _, res := range r.All() {
		fmt.Fprintln(f, res.Markdown())
		fmt.Fprintf(os.Stderr, "report: %-10s done (%s elapsed)\n", res.ID, time.Since(start).Round(time.Second))
	}
	if !*skipAbl {
		fmt.Fprintf(f, "## Ablation studies\n\n")
		for _, res := range r.Ablations() {
			fmt.Fprintln(f, res.Markdown())
			fmt.Fprintf(os.Stderr, "report: %-12s done (%s elapsed)\n", res.ID, time.Since(start).Round(time.Second))
		}
	}
	fmt.Fprintf(os.Stderr, "report: wrote %s\n", *out)
}

func workloadKind(kernels bool) string {
	if kernels {
		return "execution-driven assembly kernels"
	}
	return "calibrated synthetic traces"
}
