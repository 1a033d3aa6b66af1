package dist

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/uarch"
)

// Options configures a Coordinator. The zero value selects sensible
// defaults for every field.
type Options struct {
	// Timeout bounds one remote request end to end — queueing on the
	// worker, simulation, and streaming the result back (default 5m).
	Timeout time.Duration
	// HealthInterval is the period of the background /healthz sweep that
	// feeds worker circuit breakers and of the registry re-read that
	// lets workers join and leave the running sweep (default 5s).
	HealthInterval time.Duration
	// Registry names a dynamic worker-membership source — a file or an
	// http(s):// endpoint listing one worker address per line — re-read
	// on every health interval. Registry workers join and leave the
	// fleet while a sweep runs; addresses passed to NewCoordinator stay
	// pinned regardless. Empty means static membership only.
	Registry string
	// Token, when non-empty, is sent as "Authorization: Bearer <token>"
	// on every /run request. Workers started with a matching -token
	// reject anything else with 401, so an exposed worker cannot be fed
	// arbitrary work.
	Token string
	// TLS, when non-nil, configures the client side of https:// workers
	// — typically a RootCAs pool trusting the fleet's self-signed or
	// private-CA certificate (see TLSConfigFromCA).
	TLS *tls.Config
	// BreakerThreshold is how many consecutive probe or dispatch
	// failures open a worker's circuit breaker (default 1: the first
	// failure evicts, as the pre-breaker coordinator did).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker keeps its worker out
	// of dispatch and probing before admitting a half-open trial; it
	// doubles on every consecutive re-open (default: HealthInterval).
	BreakerCooldown time.Duration
	// Hedge enables hedged dispatch: once a request has been in flight
	// longer than the fleet's p95 latency estimate, a second attempt
	// launches on the least-loaded other worker; the first result wins
	// and the loser is canceled. The worker-side runKey singleflight
	// dedups the work, and the coordinator's forwarder keeps observer
	// events exactly-once, but the raw dispatch count is no longer
	// one-per-run — so hedging is opt-in (hpserve turns it on; batch
	// sweep equivalence tests leave it off).
	Hedge bool
	// Transport, when non-nil, replaces the coordinator's underlying
	// HTTP transport for runs and probes — the chaos harness's
	// fault-injection seam (chaos.Injector.Transport).
	Transport http.RoundTripper
	// Logf receives eviction, retry and fallback warnings (default:
	// stderr).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Minute
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 5 * time.Second
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = o.HealthInterval
	}
	if o.Logf == nil {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return o
}

// DeadlineHeader carries the request's remaining execution budget to
// the worker as integer milliseconds; the worker bounds its own
// queueing and simulation context by it, so a deadline is honored even
// when the client connection lingers.
const DeadlineHeader = "X-Halfprice-Deadline-Ms"

// Coordinator implements experiments.Backend over a fleet of sweepd
// workers: requests shard by their canonical key onto a preferred worker
// (fleet-level singleflight affinity), failures re-dispatch with
// backoff and feed per-worker circuit breakers, slow requests hedge to
// a second worker when enabled, and when no worker is reachable
// execution degrades to the local machine with a warning instead of
// failing the sweep. Safe for concurrent use; Close releases the health
// checker.
type Coordinator struct {
	opts Options
	pool *pool
	hc   *http.Client
	lat  latencyTracker

	hedges    atomic.Uint64 // hedge attempts launched
	hedgeWins atomic.Uint64 // hedges that produced the winning result

	fallbackOnce sync.Once
}

// sourcedObserver is the optional observer extension (implemented by
// progress.Tracker) that attributes forwarded events to the worker that
// produced them; plain Observers get the unsourced calls.
type sourcedObserver interface {
	RunStartedFrom(source, bench, config string, insts uint64)
	RunFinishedFrom(source, bench, config string, insts uint64)
}

// NewCoordinator returns a coordinator over the given worker addresses
// ("host:port" or full URLs, https:// for TLS-serving workers) plus
// whatever Options.Registry currently lists. Every worker is probed
// once before this returns, so an all-dead fleet degrades to local
// execution on the very first request rather than after a timeout.
func NewCoordinator(addrs []string, opts Options) *Coordinator {
	opts = opts.withDefaults()
	probeTimeout := opts.HealthInterval / 2
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	var reg *Registry
	if strings.TrimSpace(opts.Registry) != "" {
		reg = NewRegistry(opts.Registry)
	}
	hc := &http.Client{}
	switch {
	case opts.Transport != nil:
		hc.Transport = opts.Transport
	case opts.TLS != nil:
		hc.Transport = &http.Transport{TLSClientConfig: opts.TLS}
	}
	return &Coordinator{
		opts: opts,
		pool: newPool(poolConfig{
			addrs:            addrs,
			registry:         reg,
			interval:         opts.HealthInterval,
			probeTimeout:     probeTimeout,
			tls:              opts.TLS,
			transport:        opts.Transport,
			breakerThreshold: opts.BreakerThreshold,
			breakerCooldown:  opts.BreakerCooldown,
			logf:             opts.Logf,
		}),
		hc: hc,
	}
}

// Close stops the background health checker. In-flight requests finish.
func (c *Coordinator) Close() { c.pool.close() }

// HealthyWorkers reports how many workers are currently in dispatch.
func (c *Coordinator) HealthyWorkers() int { return c.pool.healthyCount() }

// HedgeStats reports how many hedged attempts this coordinator has
// launched and how many of them beat their primary.
func (c *Coordinator) HedgeStats() (launched, won uint64) {
	return c.hedges.Load(), c.hedgeWins.Load()
}

// FleetLoad sums the fleet's probe-cached telemetry: how many workers
// are healthy and how many simulations they reported in flight at
// their last health probe (Health.Running). It never touches the
// network — the numbers are at most one health interval stale — so it
// is cheap enough to call on every admission decision. hpserve's
// admission control and /v1/stats autoscaling signals read it.
func (c *Coordinator) FleetLoad() (workers int, running int64) {
	now := time.Now()
	for _, w := range c.pool.snapshot() {
		if !w.dispatchableAt(now) {
			continue
		}
		workers++
		running += w.loadNow()
	}
	return workers, running
}

// Execute implements experiments.Backend: dispatch to the request's
// preferred worker, re-dispatch on failure, and degrade to local
// execution when the fleet is unreachable. Observer events fire exactly
// once per run regardless of retries or hedging. ctx bounds the whole
// attempt sequence — one budget decremented across retries, not one per
// attempt; a done ctx stops retrying, backing off and falling back.
func (c *Coordinator) Execute(ctx context.Context, req experiments.Request, obs experiments.Observer) (*uarch.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fw := &forwarder{obs: obs, bench: req.Bench, label: req.Label(), insts: req.Budget}
	sh := shard(req.Key())
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: deadline spent after %d attempts: %w", attempt, err)
		}
		w := c.pool.pick(sh, attempt)
		if w == nil {
			break
		}
		if attempt > 0 {
			if err := sleepBackoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		st, err := c.runMaybeHedged(ctx, w, req, fw)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			// The failure is the caller's expired deadline, not the
			// worker's: don't charge its breaker.
			return nil, fmt.Errorf("dist: deadline spent mid-dispatch: %w", ctx.Err())
		}
		c.opts.Logf("dist: worker %s: %s %s: %v; re-dispatching", w.addr, req.Bench, fw.label, err)
		if w.br.failure(time.Now()) {
			c.opts.Logf("dist: worker %s breaker opened after failed request", w.addr)
		}
	}

	// Graceful degradation: no dispatchable worker, or every attempt
	// failed. A dead fleet degrades every request of the sweep the same
	// way, so the warning fires once per coordinator, not once per
	// request; the per-worker breaker lines above already say which
	// workers failed.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: deadline spent before local fallback: %w", err)
	}
	c.fallbackOnce.Do(func() {
		c.opts.Logf("dist: warning: no healthy worker completed %s %s; falling back to local execution (warned once per sweep)", req.Bench, fw.label)
	})
	fw.start("")
	st, err := experiments.Execute(req)
	if err != nil {
		return nil, err
	}
	fw.finish("")
	return st, nil
}

// runMaybeHedged runs one dispatch attempt, racing a hedged second
// attempt against the primary when hedging is enabled and the primary
// outlives the hedge delay. First result wins; the loser's request
// context is canceled. A canceled loser never counts against its
// worker's breaker — only the attempt that actually failed does, and
// that accounting happens here because only this function knows which
// worker produced which error.
func (c *Coordinator) runMaybeHedged(ctx context.Context, primary *worker, req experiments.Request, fw *forwarder) (*uarch.Stats, error) {
	delay, ok := c.hedgeDelay()
	if !ok {
		return c.timedRunOn(ctx, primary, req, fw)
	}

	type outcome struct {
		st  *uarch.Stats
		err error
		w   *worker
		ctx context.Context
	}
	results := make(chan outcome, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() {
		st, err := c.timedRunOn(pctx, primary, req, fw)
		results <- outcome{st, err, primary, pctx}
	}()

	inFlight := 1
	var hcancel context.CancelFunc
	timer := time.After(delay)
	var firstErr error
	for inFlight > 0 {
		select {
		case r := <-results:
			inFlight--
			if r.err == nil {
				pcancel()
				if hcancel != nil {
					hcancel()
				}
				if r.w != primary {
					c.hedgeWins.Add(1)
				}
				return r.st, nil
			}
			// A loser canceled by the winner (or by our own deadline)
			// isn't the worker's fault; everything else opens its way
			// toward the breaker.
			if r.ctx.Err() == nil || ctx.Err() != nil {
				if firstErr == nil {
					firstErr = r.err
				}
			}
			if r.ctx.Err() == nil && r.w != primary {
				c.opts.Logf("dist: hedged attempt on %s failed: %v", r.w.addr, r.err)
				if r.w.br.failure(time.Now()) {
					c.opts.Logf("dist: worker %s breaker opened after failed hedge", r.w.addr)
				}
			}
		case <-timer:
			timer = nil
			peer := c.pool.leastLoadedExcept(primary)
			if peer == nil {
				continue
			}
			c.hedges.Add(1)
			var hctx context.Context
			hctx, hcancel = context.WithCancel(ctx)
			defer hcancel()
			inFlight++
			go func() {
				st, err := c.timedRunOn(hctx, peer, req, fw)
				results <- outcome{st, err, peer, hctx}
			}()
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("request canceled")
	}
	return nil, firstErr
}

// hedgeDelay returns the in-flight duration after which a request
// hedges, and whether hedging applies at all right now.
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	if !c.opts.Hedge {
		return 0, false
	}
	return c.lat.estimate()
}

// timedRunOn is runOn plus latency accounting for the hedge trigger.
func (c *Coordinator) timedRunOn(ctx context.Context, w *worker, req experiments.Request, fw *forwarder) (*uarch.Stats, error) {
	t0 := time.Now()
	st, err := c.runOn(ctx, w, req, fw)
	if err == nil {
		c.lat.observe(time.Since(t0))
	}
	return st, err
}

// runOn sends one request to one worker and consumes its NDJSON stream:
// progress events are forwarded to the observer, the terminal line
// yields the result. Every failure mode a worker can present — refused
// connection, death mid-stream, a hang past the timeout, corrupt JSON,
// a non-200 status, a stream that ends without a result — comes back as
// an error for the caller to re-dispatch. The request context is
// bounded by both the caller's deadline and Options.Timeout, and the
// tighter of the two rides to the worker in DeadlineHeader.
func (c *Coordinator) runOn(ctx context.Context, w *worker, req experiments.Request, fw *forwarder) (*uarch.Stats, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshaling request: %v", err)
	}
	rctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, w.base+RunPath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("building request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if dl, ok := rctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			hreq.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	if c.opts.Token != "" {
		hreq.Header.Set("Authorization", authorization(c.opts.Token))
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m Message
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("corrupt stream: %v", err)
		}
		switch m.Kind() {
		case "start":
			fw.start(w.addr)
		case "finish":
			// The result line right behind it carries the stats; the
			// observer's finish event fires once that arrives.
		case "result":
			if m.Stats == nil {
				return nil, fmt.Errorf("result message without stats")
			}
			fw.finish(w.addr)
			// Read on to the end of the stream, which the worker writes
			// only once its handler has returned: the run is then over
			// on both sides, and a body read to EOF lets the transport
			// reuse the connection.
			io.Copy(io.Discard, resp.Body)
			return m.Stats, nil
		case "error":
			return nil, fmt.Errorf("worker error: %s", m.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading stream: %v", err)
	}
	return nil, fmt.Errorf("stream ended before a result (worker died mid-run)")
}

// Retry policy: a request is dispatched to at most attempts workers
// before the coordinator degrades to local execution, each failure
// re-dispatching to the next dispatchable worker in ring order. Retry n
// waits in [backoff<<n / 2, backoff<<n), jittered to keep a fleet of
// retrying requests from thundering in lockstep. maxBackoff caps one
// delay and doubles as the overflow guard: backoff<<n wraps (even
// negative) for large n, so the exponent is never applied past the
// point where the delay already saturates.
const (
	attempts   = 3
	backoff    = 100 * time.Millisecond
	maxBackoff = 30 * time.Second
)

// backoffDelay returns the clamped base delay for retry n:
// min(backoff<<n, maxBackoff), computed without overflow.
func backoffDelay(n int) time.Duration {
	d := backoff
	for i := 0; i < n; i++ {
		if d >= maxBackoff {
			break
		}
		d <<= 1
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// sleepBackoff waits backoffDelay(n) jittered into [d/2, d):
// exponential growth spaces retries out, jitter decorrelates a fleet
// of them. It returns early — with the context's error — when ctx is
// canceled, so an abandoned sweep never sits out a backoff.
func sleepBackoff(ctx context.Context, n int) error {
	d := backoffDelay(n)
	j := time.Duration(rand.Int64N(int64(d/2) + 1))
	select {
	case <-time.After(d/2 + j):
		return nil
	case <-ctx.Done():
		return fmt.Errorf("dist: canceled during backoff: %w", ctx.Err())
	}
}

// forwarder fires observer events for one request exactly once each,
// however many dispatch attempts — sequential retries or concurrent
// hedges — it takes.
type forwarder struct {
	obs          experiments.Observer
	bench, label string
	insts        uint64

	mu       sync.Mutex
	started  bool
	finished bool
}

// start forwards the run's start event, attributed to source when the
// observer supports attribution. Later calls are no-ops, so a retry
// after a worker died post-start — or a hedge racing its primary —
// cannot double-count the run.
func (f *forwarder) start(source string) {
	if f.obs == nil {
		return
	}
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	if so, ok := f.obs.(sourcedObserver); ok && source != "" {
		so.RunStartedFrom(source, f.bench, f.label, f.insts)
		return
	}
	f.obs.RunStarted(f.bench, f.label, f.insts)
}

// finish forwards the run's finish event; it backfills the start event
// first if no worker ever streamed one, preserving the observer's
// queued → started → finished ordering.
func (f *forwarder) finish(source string) {
	if f.obs == nil {
		return
	}
	f.start(source)
	f.mu.Lock()
	if f.finished {
		f.mu.Unlock()
		return
	}
	f.finished = true
	f.mu.Unlock()
	if so, ok := f.obs.(sourcedObserver); ok && source != "" {
		so.RunFinishedFrom(source, f.bench, f.label, f.insts)
		return
	}
	f.obs.RunFinished(f.bench, f.label, f.insts)
}
