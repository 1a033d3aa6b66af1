// Command sweepd is the distributed-sweep worker daemon. It serves the
// internal/dist HTTP/JSON API — POST /run executes one serialized
// (benchmark, config, insts) simulation request and streams progress
// events plus the final statistics back; GET /healthz reports liveness;
// POST /drain starts a graceful decommission. Point any sweep-driving
// command (figures, report, calibrate, halfprice) at a fleet of these
// with -workers host1:port,host2:port or a shared -registry file.
//
// Usage:
//
//	sweepd [flags]
//
//	-addr host:port  listen address (default localhost:9771)
//	-j n             max concurrent simulations (default GOMAXPROCS)
//	-memo-cap n      completed results kept in the memo cache (default 512)
//	-token s         require "Authorization: Bearer s" on /run and /drain
//	                 (default $HALFPRICE_TOKEN; empty = no auth)
//	-tls-cert f      PEM certificate; with -tls-key, serve HTTPS
//	-tls-key f       PEM private key
//	-register f      registry file to self-announce in on start and
//	                 leave again on drain
//	-advertise a     address announced in the registry (default -addr;
//	                 an https:// prefix is added when serving TLS)
//	-chaos-seed n    inject a deterministic pre-run delay of up to 50ms
//	                 before each simulation, seeded by n (0 = off; chaos
//	                 testing — see internal/chaos and
//	                 scripts/chaos-smoke.sh)
//	-quiet           suppress the per-request log on stderr
//
// Simulations run through exactly the same in-process path as a local
// sweep, so results are bit-identical to local execution. Repeated or
// concurrent requests for the same simulation are deduplicated
// (singleflight) and memoised, with the memo bounded to -memo-cap
// completed results. SIGINT/SIGTERM drains the daemon: it leaves the
// registry, stops accepting requests, finishes in-flight runs, then
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"halfprice/internal/chaos"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
)

// chaosMaxDelay bounds the -chaos-seed pre-run delays.
const chaosMaxDelay = 50 * time.Millisecond

func main() {
	addr := flag.String("addr", "localhost:9771", "listen address (host:port)")
	par := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations")
	memoCap := flag.Int("memo-cap", 0, "completed results kept in the memo cache (0 = default 512)")
	token := flag.String("token", os.Getenv(dist.TokenEnv), "shared auth token required on /run and /drain (default $"+dist.TokenEnv+"; empty = no auth)")
	tlsCert := flag.String("tls-cert", "", "PEM certificate file; with -tls-key, serve HTTPS")
	tlsKey := flag.String("tls-key", "", "PEM private key file")
	register := flag.String("register", "", "registry file to self-announce in on start and leave on drain")
	advertise := flag.String("advertise", "", "address announced in the registry (default -addr; https:// is prefixed when serving TLS)")
	chaosSeed := flag.Int64("chaos-seed", 0, "inject a deterministic pre-run delay of up to 50ms before each simulation, seeded by this value (0 = off; chaos testing)")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	flag.Parse()

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "sweepd: -tls-cert and -tls-key must be given together")
		os.Exit(2)
	}

	// -chaos-seed: a deterministic pre-run delay per request, keyed on
	// (seed, request key, per-key call index) with chaos.Roll — the n-th
	// run of a given simulation sleeps the same fraction of
	// chaosMaxDelay on every fleet with the same seed, regardless of how
	// requests interleave across goroutines.
	var preRun func(req experiments.Request)
	if *chaosSeed != 0 {
		var mu sync.Mutex
		calls := map[string]uint64{}
		preRun = func(req experiments.Request) {
			key := req.Key()
			mu.Lock()
			n := calls[key]
			calls[key] = n + 1
			mu.Unlock()
			frac := chaos.Roll(*chaosSeed, "prerun-delay", key, n)
			time.Sleep(time.Duration(frac * float64(chaosMaxDelay)))
		}
		logf("sweepd: chaos pre-run delays on (seed %d, max %s)", *chaosSeed, chaosMaxDelay)
	}

	server := dist.NewServer(dist.ServerOptions{Parallel: *par, MemoCap: *memoCap, Token: *token, PreRun: preRun, Logf: logf})
	httpSrv := &http.Server{Addr: *addr, Handler: server.Handler()}

	// Self-announce in the registry before serving; deregister exactly
	// once — on drain (so coordinators' next registry read drops this
	// worker) or on any exit path.
	deregister := func() {}
	if *register != "" {
		announce := strings.TrimSpace(*advertise)
		if announce == "" {
			announce = *addr
		}
		if *tlsCert != "" && !strings.Contains(announce, "://") {
			announce = "https://" + announce
		}
		reg := dist.NewRegistry(*register)
		if err := reg.Register(announce); err != nil {
			fmt.Fprintln(os.Stderr, "sweepd:", err)
			os.Exit(1)
		}
		logf("sweepd: registered %s in %s", announce, *register)
		var once sync.Once
		deregister = func() {
			once.Do(func() {
				if err := reg.Deregister(announce); err != nil {
					logf("sweepd: deregistering: %v", err)
					return
				}
				logf("sweepd: deregistered %s from %s", announce, *register)
			})
		}
	}
	defer deregister()

	// First signal: leave the registry, drain (healthz flips to 503 so
	// coordinators evict this worker), finish in-flight runs, exit.
	// Second signal: exit now.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		logf("sweepd: signal received; draining")
		deregister()
		server.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		go func() {
			<-sigs
			logf("sweepd: second signal; exiting immediately")
			cancel()
		}()
		httpSrv.Shutdown(ctx)
	}()

	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
	}
	logf("sweepd: serving %s on %s (max %d concurrent simulations)", scheme, *addr, *par)
	var err error
	if *tlsCert != "" {
		err = httpSrv.ListenAndServeTLS(*tlsCert, *tlsKey)
	} else {
		err = httpSrv.ListenAndServe()
	}
	if err != nil && err != http.ErrServerClosed {
		deregister()
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}
