package dist

import (
	"crypto/tls"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"halfprice/internal/chaos"
)

// worker is one sweepd instance in the coordinator's fleet. Its
// standing in dispatch is owned by a per-worker circuit breaker
// (breaker.go): probe and dispatch failures open it, a cooldown plus a
// successful half-open trial closes it again.
type worker struct {
	addr string // as given in -workers or the registry, e.g. "host:9771"
	base string // request URL prefix, e.g. "http://host:9771"
	br   *breaker

	mu   sync.Mutex
	load int64 // Health.Running from the last successful probe
}

// dispatchableAt reports whether the breaker would admit a request now.
func (w *worker) dispatchableAt(now time.Time) bool { return w.br.dispatchable(now) }

// setLoad caches the worker's reported queue depth for load-aware pick.
func (w *worker) setLoad(n int64) {
	w.mu.Lock()
	w.load = n
	w.mu.Unlock()
}

func (w *worker) loadNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.load
}

// loadThreshold is how far above the fleet-median queue depth a shard's
// preferred worker may run before dispatch sheds away from it to the
// least-loaded healthy worker.
const loadThreshold = 4

// poolConfig carries the coordinator options the pool needs.
type poolConfig struct {
	addrs            []string      // static membership (-workers)
	registry         *Registry     // dynamic membership source; nil = static only
	interval         time.Duration // health-probe and registry re-read period
	probeTimeout     time.Duration
	tls              *tls.Config // client TLS for https:// workers
	transport        http.RoundTripper
	clock            chaos.Clock
	breakerThreshold int
	breakerCooldown  time.Duration
	logf             func(format string, args ...any)
}

// pool tracks fleet membership, worker standing and worker load, and
// picks dispatch targets. Membership is the static -workers list plus
// whatever the registry currently names; both are re-evaluated on every
// health interval, so workers join and leave a running sweep. A worker
// whose breaker opens — consecutive failed probes or requests — leaves
// dispatch until its cooldown expires and a half-open trial succeeds.
type pool struct {
	static           []string // addresses pinned for the pool's lifetime
	registry         *Registry
	probeHC          *http.Client // short-timeout client for health probes
	clock            chaos.Clock
	logf             func(format string, args ...any)
	breakerThreshold int
	breakerCooldown  time.Duration

	wmu     sync.Mutex
	workers []*worker // current membership, static first

	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once
}

// newPool builds the worker set (static addresses plus one initial
// registry read), probes every worker once synchronously (so a
// coordinator knows immediately whether anyone is reachable), and
// starts the periodic health checker.
func newPool(cfg poolConfig) *pool {
	if cfg.clock == nil {
		cfg.clock = chaos.System()
	}
	p := &pool{
		registry:         cfg.registry,
		probeHC:          probeClient(cfg.probeTimeout, cfg.tls, cfg.transport),
		clock:            cfg.clock,
		logf:             cfg.logf,
		breakerThreshold: cfg.breakerThreshold,
		breakerCooldown:  cfg.breakerCooldown,
		interval:         cfg.interval,
		stop:             make(chan struct{}),
	}
	for _, a := range cfg.addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		p.static = append(p.static, a)
		p.workers = append(p.workers, p.newWorker(a))
	}
	p.refresh()
	go p.loop()
	return p
}

// probeClient builds the short-timeout health-probe client, with the
// fleet's TLS configuration when one is set and the injected transport
// (chaos or otherwise) when one is given.
func probeClient(timeout time.Duration, tc *tls.Config, rt http.RoundTripper) *http.Client {
	hc := &http.Client{Timeout: timeout}
	switch {
	case rt != nil:
		hc.Transport = rt
	case tc != nil:
		hc.Transport = &http.Transport{TLSClientConfig: tc}
	}
	return hc
}

// newWorker builds a worker from its address, defaulting bare
// host:port to http:// (a registry or -workers entry may carry an
// explicit https:// scheme for a TLS-serving worker).
func (p *pool) newWorker(addr string) *worker {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &worker{
		addr: addr,
		base: strings.TrimSuffix(base, "/"),
		br:   newBreaker(p.breakerThreshold, p.breakerCooldown),
	}
}

// refresh is one membership-and-health pass: reconcile with the
// registry, then probe everyone and wait for the verdicts.
func (p *pool) refresh() {
	p.syncRegistry()
	p.probeAll()
}

// syncRegistry reconciles membership with the registry listing: newly
// listed addresses join (probed by the caller's probeAll before they
// can win a pick), delisted ones leave dispatch. Static -workers
// addresses are pinned regardless. Breaker state survives for workers
// that stay. A registry read failure keeps the current membership — a
// briefly unreadable file must not evict a healthy fleet.
func (p *pool) syncRegistry() {
	if p.registry == nil {
		return
	}
	addrs, err := p.registry.Addrs()
	if err != nil {
		p.logf("dist: %v; keeping current fleet", err)
		return
	}
	want := map[string]bool{}
	for _, a := range p.static {
		want[a] = true
	}
	for _, a := range addrs {
		want[a] = true
	}

	p.wmu.Lock()
	have := map[string]*worker{}
	var kept []*worker
	for _, w := range p.workers {
		if want[w.addr] {
			kept = append(kept, w)
			have[w.addr] = w
		} else {
			p.logf("dist: worker %s left the registry; removed from dispatch", w.addr)
		}
	}
	for _, a := range addrs {
		if have[a] == nil {
			w := p.newWorker(a)
			kept = append(kept, w)
			have[a] = w
			p.logf("dist: worker %s joined from the registry", a)
		}
	}
	p.workers = kept
	p.wmu.Unlock()
}

// snapshot returns the current membership slice for lock-free iteration.
func (p *pool) snapshot() []*worker {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return append([]*worker(nil), p.workers...)
}

// probeAll health-checks every worker concurrently and waits for the
// verdicts. Workers behind an unexpired open breaker are skipped — the
// breaker's cooldown, not the probe cadence, owns re-admission pacing.
func (p *pool) probeAll() {
	var wg sync.WaitGroup
	for _, w := range p.snapshot() {
		if !w.br.allowProbe(p.clock.Now()) {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			p.probe(w)
		}(w)
	}
	wg.Wait()
}

// probe asks one worker for /healthz and feeds the verdict to its
// breaker: a failure or drain (503) counts toward opening it, a 200
// closes it (re-admission). A successful probe also caches the
// worker's queue depth for load-aware dispatch.
func (p *pool) probe(w *worker) {
	ok := false
	if resp, err := p.probeHC.Get(w.base + HealthzPath); err == nil {
		var h Health
		json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&h)
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
		if ok {
			w.setLoad(h.Running)
		}
	}
	if ok {
		if w.br.success() {
			p.logf("dist: worker %s is up; breaker closed", w.addr)
		}
	} else if w.br.failure(p.clock.Now()) {
		p.logf("dist: worker %s is unreachable or draining; breaker open (evicted)", w.addr)
	}
}

// loop re-reads the registry and re-probes the fleet on the health
// interval: joining workers enter dispatch, delisted and dead ones
// leave it, recovered ones come back — all between requests.
func (p *pool) loop() {
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.refresh()
		}
	}
}

// pick returns the dispatch target for a shard. Affinity first: the
// shard's preferred worker (rotated by retry attempt, skipping
// broken-open ones in ring order) keeps equal requests landing on the
// same machine, where the memo cache already holds or is computing the
// result. Load sheds second: when the preferred worker's probed queue
// depth exceeds the fleet median by more than the threshold, the least
// loaded dispatchable worker takes the run instead — singleflight
// affinity in the balanced case, demand-driven dispatch for hot shards
// (the paper's own move: elect the less-loaded resource instead of
// fixed affinity). Returns nil when no worker is dispatchable — the
// caller degrades to local execution. The chosen worker's breaker is
// committed (an expired open breaker transitions to its half-open
// trial).
func (p *pool) pick(sh uint32, attempt int) *worker {
	now := p.clock.Now()
	ws := p.snapshot()
	n := len(ws)
	if n == 0 {
		return nil
	}
	var preferred *worker
	healthy := make([]*worker, 0, n)
	for i := 0; i < n; i++ {
		w := ws[(int(sh%uint32(n))+attempt+i)%n]
		if !w.dispatchableAt(now) {
			continue
		}
		if preferred == nil {
			preferred = w
		}
		healthy = append(healthy, w)
	}
	if preferred == nil {
		return nil
	}
	if len(healthy) == 1 {
		preferred.br.allowDispatch(now)
		return preferred
	}
	loads := make([]int64, len(healthy))
	for i, w := range healthy {
		loads[i] = w.loadNow()
	}
	pref := preferred.loadNow()
	if pref <= median(loads)+loadThreshold {
		preferred.br.allowDispatch(now)
		return preferred
	}
	// Hot shard: elect the least loaded worker (first in ring order on
	// ties, so the choice is deterministic for a given fleet state).
	best := preferred
	bestLoad := pref
	for _, w := range healthy {
		if l := w.loadNow(); l < bestLoad {
			best, bestLoad = w, l
		}
	}
	best.br.allowDispatch(now)
	return best
}

// leastLoadedExcept returns the least-loaded dispatchable worker other
// than skip — the hedged-dispatch peer. Nil when no such worker exists.
func (p *pool) leastLoadedExcept(skip *worker) *worker {
	now := p.clock.Now()
	var best *worker
	var bestLoad int64
	for _, w := range p.snapshot() {
		if w == skip || !w.dispatchableAt(now) {
			continue
		}
		if l := w.loadNow(); best == nil || l < bestLoad {
			best, bestLoad = w, l
		}
	}
	if best != nil {
		best.br.allowDispatch(now)
	}
	return best
}

// median returns the lower median of loads. It may reorder loads.
func median(loads []int64) int64 {
	sort.Slice(loads, func(i, j int) bool { return loads[i] < loads[j] })
	return loads[(len(loads)-1)/2]
}

// healthyCount reports how many workers are currently in dispatch.
func (p *pool) healthyCount() int {
	now := p.clock.Now()
	n := 0
	for _, w := range p.snapshot() {
		if w.dispatchableAt(now) {
			n++
		}
	}
	return n
}

// close stops the health checker.
func (p *pool) close() { p.stopOnce.Do(func() { close(p.stop) }) }
