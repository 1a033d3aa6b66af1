// Command hpserve is the simulation-as-a-service daemon: a
// long-running multi-tenant HTTP front end over the experiment engine
// (internal/serve). Tenants submit simulation jobs over REST, watch
// their progress as live NDJSON event streams, and fetch results; the
// server owns a disk-journaled priority queue (killing and restarting
// it resumes queued work), per-tenant quotas with fair-share
// scheduling, admission control that 429s with Retry-After under
// overload, and a shared cross-tenant result CDN backed by the
// internal/store cache — an identical config submitted by any tenant
// is served in microseconds without a fleet dispatch.
//
// Usage:
//
//	hpserve [flags]
//
//	-addr host:port   listen address (default localhost:9780)
//	-state-dir dir    job-journal directory (default ~/.cache equivalent)
//	-cache-dir dir    shared result store; "" = default, with -no-cache off
//	-no-cache         disable the result store
//	-j n              concurrently dispatched jobs (default 2)
//	-max-queue n      queued-job bound before 429 (default 256)
//	-tenant-quota n   per-tenant queued-job bound (default 32)
//	-max-insts n      per-job instruction-budget cap (default 5000000)
//	-history n        terminal jobs retained in the journal (default 1024)
//	-tenants f        tenants file, one "name:token" per line; empty =
//	                  open mode (every request is tenant "anonymous")
//	-quiet            suppress operational logging
//
// Plus the shared fleet flags (-workers, -registry, -worker-timeout,
// -token, -tls-ca, -health-interval, -hedge, -hedge-after): with a
// fleet configured, jobs dispatch to sweepd workers through the dist
// coordinator and the fleet's probe-cached load telemetry feeds
// admission control and /v1/stats; without one, jobs simulate
// in-process. Unlike the batch sweep commands, hpserve turns -hedge on
// by default — interactive tenants feel tail latency, and the
// coordinator keeps hedged runs exactly-once.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"halfprice/internal/dist"
	"halfprice/internal/serve"
	"halfprice/internal/store"
)

func main() {
	addr := flag.String("addr", "localhost:9780", "listen address (host:port)")
	stateDir := flag.String("state-dir", defaultStateDir(), "directory for the persistent job journal")
	cacheDir := flag.String("cache-dir", store.DefaultDir(), "shared result-store directory (the cross-tenant result CDN)")
	noCache := flag.Bool("no-cache", false, "disable the result store")
	workers := flag.Int("j", 0, "concurrently dispatched jobs (0 = default 2)")
	maxQueue := flag.Int("max-queue", 0, "queued-job bound before submits are rejected with 429 (0 = default 256)")
	tenantQuota := flag.Int("tenant-quota", 0, "per-tenant queued-job bound (0 = default 32)")
	maxInsts := flag.Uint64("max-insts", 0, "per-job instruction-budget cap (0 = default 5000000)")
	history := flag.Int("history", 0, "terminal jobs retained in the journal across restarts (0 = default 1024)")
	tenantsFile := flag.String("tenants", "", `tenants file, one "name:token" per line; empty = open mode`)
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	fleet := dist.AddFlags()
	// hpserve fronts interactive tenants, so hedged dispatch defaults on
	// here (batch sweep commands keep it opt-in: their equivalence
	// checks count raw dispatches). -hedge=false restores single-shot
	// dispatch.
	flag.Set("hedge", "true")
	if fl := flag.Lookup("hedge"); fl != nil {
		fl.DefValue = "true"
	}
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	var tenants map[string]string
	if *tenantsFile != "" {
		var err error
		tenants, err = serve.LoadTenants(*tenantsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpserve:", err)
			os.Exit(1)
		}
		logf("hpserve: %d tenant(s) loaded from %s", len(tenants), *tenantsFile)
	} else {
		logf("hpserve: no -tenants file; running in open mode")
	}

	st := store.FromFlags(*cacheDir, *noCache)
	if st == nil {
		logf("hpserve: result store disabled; every job will dispatch")
	}

	opts := serve.Options{
		Dir:         *stateDir,
		Store:       st,
		Workers:     *workers,
		MaxQueue:    *maxQueue,
		TenantQuota: *tenantQuota,
		MaxInsts:    *maxInsts,
		HistoryCap:  *history,
		Tenants:     tenants,
		Logf:        logf,
	}
	coord, closeCoord, err := fleet.Coordinator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpserve:", err)
		os.Exit(1)
	}
	defer closeCoord()
	if coord != nil {
		opts.Backend = coord
		opts.FleetStats = coord.FleetLoad
		logf("hpserve: dispatching to the sweepd fleet (%d worker(s) healthy)", coord.HealthyWorkers())
	} else {
		logf("hpserve: no fleet configured; simulating in-process")
	}

	srv, err := serve.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpserve:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// First signal: stop accepting requests, let in-flight dispatches
	// finish, close the journal. Second signal: exit now. Queued jobs
	// stay journaled and resume on the next start.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		logf("hpserve: signal received; shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		go func() {
			<-sigs
			logf("hpserve: second signal; exiting immediately")
			cancel()
		}()
		httpSrv.Shutdown(ctx)
	}()

	logf("hpserve: serving on %s (state %s)", *addr, *stateDir)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "hpserve:", err)
		os.Exit(1)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hpserve:", err)
		os.Exit(1)
	}
	logf("hpserve: shut down cleanly")
}

// defaultStateDir is the journal home when -state-dir is not given:
// next to the default result store under the user cache dir.
func defaultStateDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return "hpserve-state"
	}
	return filepath.Join(base, "halfprice", "hpserve")
}
