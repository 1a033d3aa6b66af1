package hpbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"halfprice/internal/benchfmt"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/serve"
	"halfprice/internal/store"
	"halfprice/internal/trace"
)

// The serve workload's traffic is an assumption, not a replay: no
// production traffic logs exist. Two tenants each run closed-loop sweeps
// (submit every job, then follow each job's event stream to its end)
// over one keep-alive connection. Jobs are 60% interactive at 50k
// instructions, 30% batch at 200k and 10% background at 400k, and 30%
// come from a 20-config hot set both tenants share. A sweep holds ten
// jobs, the fewest that carry that mix exactly, in fixed slots (see
// sweepSlots), so every sweep has the same shape, sweeps differ only in
// the configs they draw, and a sweep's time is a steady unit.
var tenants = []struct{ name, token string }{
	{"alpha", "alpha-token"},
	{"beta", "beta-token"},
}

var priorities = [3]string{"interactive", "batch", "background"}

// sweepSlots is one sweep's jobs: six interactive, three batch and one
// background (class indexes priorities), three of them hot. The hot
// slots are fixed, two interactive and one batch: a hot background job
// would take 400k of the sweep's 1M unique instructions onto the CDN in
// some sweeps and not others.
var sweepSlots = []struct {
	class int
	hot   bool
}{
	{0, true}, {0, true}, {0, false}, {0, false}, {0, false}, {0, false},
	{1, true}, {1, false}, {1, false},
	{2, false},
}

const hotSetSize = 20

// deck deals machine configs — benchmark × width × scheme — so that
// over a run every config comes up about equally often whatever the
// seed; the seed only orders them. Drawing each config independently
// instead let one seed's job mix cost 10% more host time than another's.
type deck struct {
	rng   *rand.Rand
	cards []serve.SubmitRequest
	next  int
}

func newDeck(rng *rand.Rand) *deck {
	d := &deck{rng: rng}
	for _, b := range trace.BenchmarkNames {
		for _, w := range []int{4, 8} {
			for _, s := range benchfmt.Schemes() {
				d.cards = append(d.cards, serve.SubmitRequest{Bench: b, Width: w, Scheme: s})
			}
		}
	}
	d.next = len(d.cards)
	return d
}

// deal returns the next config, reshuffling after a full pass.
func (d *deck) deal(class int, insts uint64) serve.SubmitRequest {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	spec := d.cards[d.next]
	d.next++
	spec.Insts, spec.Priority = insts, priorities[class]
	return spec
}

// hotSet deals the configs both tenants repeat, by class, in the class
// mix of the hot slots; each runs at its class's base budget.
func hotSet(e *env) [3][]serve.SubmitRequest {
	var classes []int
	for _, s := range sweepSlots {
		if s.hot {
			classes = append(classes, s.class)
		}
	}
	d := newDeck(rand.New(rand.NewSource(int64(deriveSeed(e.cfg.Seed, "serve/hot")))))
	var hot [3][]serve.SubmitRequest
	for i := 0; i < hotSetSize; i++ {
		c := classes[i%len(classes)]
		hot[c] = append(hot[c], d.deal(c, e.sz.serveInsts[c]))
	}
	return hot
}

// job is one scripted submission; hot identifies its hot-set entry
// (class*hotSetSize + index) or is -1.
type job struct {
	spec serve.SubmitRequest
	hot  int
}

// jobGen generates one tenant's job script. Unique jobs get a budget no
// other job has (class base + 1 + 2k + tenant), so their keys never
// collide with the hot set or the other tenant.
type jobGen struct {
	rng    *rand.Rand
	deck   *deck
	hot    [3][]serve.SubmitRequest
	sz     sizes
	tenant int
	unique uint64
}

func newJobGen(e *env, tenant int, hot [3][]serve.SubmitRequest) *jobGen {
	rng := rand.New(rand.NewSource(int64(deriveSeed(e.cfg.Seed, "serve/"+tenants[tenant].name))))
	return &jobGen{rng: rng, deck: newDeck(rng), hot: hot, sz: e.sz, tenant: tenant}
}

func (g *jobGen) sweep() []job {
	jobs := make([]job, len(sweepSlots))
	for i, s := range sweepSlots {
		c := s.class
		if s.hot {
			h := g.rng.Intn(len(g.hot[c]))
			jobs[i] = job{spec: g.hot[c][h], hot: c*hotSetSize + h}
			continue
		}
		insts := g.sz.serveInsts[c] + 1 + 2*g.unique + uint64(g.tenant)
		g.unique++
		jobs[i] = job{spec: g.deck.deal(c, insts), hot: -1}
	}
	g.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// requestOf resolves a submission the way hpserve does, for local
// re-execution.
func requestOf(spec serve.SubmitRequest) (experiments.Request, error) {
	cfg, err := benchfmt.SchemeConfig(spec.Width, spec.Scheme)
	if err != nil {
		return experiments.Request{}, err
	}
	return experiments.Request{Bench: spec.Bench, Config: cfg, Budget: spec.Insts}, nil
}

// client is one tenant: a single keep-alive connection to hpserve.
type client struct {
	base, token string
	hc          *http.Client
}

func newClient(base, token string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, token: token, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobResult is what the client observed of one job.
type jobResult struct {
	job
	id       string
	submitMs float64
	queueMs  float64 // the start event's t; -1 when the job never started
	jobMs    float64 // the terminal event's t
	state    string
	cached   bool
}

func (c *client) submit(j job) (jobResult, error) {
	r := jobResult{job: j, queueMs: -1}
	body, err := json.Marshal(j.spec)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	status, data, err := c.do(http.MethodPost, "/v1/jobs", body)
	r.submitMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return r, err
	}
	if status != http.StatusCreated {
		return r, fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(data))
	}
	var v serve.View
	if err := json.Unmarshal(data, &v); err != nil {
		return r, fmt.Errorf("submit: decoding job: %w", err)
	}
	r.id = v.ID
	return r, nil
}

// follow reads the job's NDJSON event stream, which the server ends
// after the terminal event.
func (c *client) follow(r *jobResult) error {
	status, data, err := c.do(http.MethodGet, "/v1/jobs/"+r.id+"/events", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("events: status %d", status)
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if ev.Event.Event == "start" && r.queueMs < 0 {
			r.queueMs = ev.T * 1000
		}
		if ev.State != "" {
			r.state, r.jobMs, r.cached = ev.State, ev.T*1000, ev.Cached
		}
	}
	if r.state == "" {
		return fmt.Errorf("events: stream ended without a terminal event")
	}
	return nil
}

// sweepResult is one closed-loop sweep, timed by the client from the
// first POST to the last terminal event.
type sweepResult struct {
	tenant, index int
	start, end    time.Time
	wall          float64
	jobs          []jobResult
}

// sweep submits every job, then follows each to its end. Failed submits
// and jobs that do not finish done are failed operations.
func (c *client) sweep(e *env, jobs []job) sweepResult {
	sr := sweepResult{start: time.Now()}
	for _, j := range jobs {
		e.res.count(1, 0)
		r, err := c.submit(j)
		if err != nil {
			e.res.count(0, 1)
			e.res.problem("serve: %v", err)
			continue
		}
		sr.jobs = append(sr.jobs, r)
	}
	for i := range sr.jobs {
		r := &sr.jobs[i]
		if err := c.follow(r); err != nil || r.state != serve.StateDone {
			e.res.count(0, 1)
			e.res.problem("serve: job %s (%s): state %q, err %v", r.id, r.spec.Bench, r.state, err)
		}
	}
	sr.end = time.Now()
	sr.wall = sr.end.Sub(sr.start).Seconds()
	return sr
}

// stack is an in-process hpserve wired as cmd/hpserve wires it — result
// CDN on, hedged dispatch, two token tenants — over a dist coordinator
// and two sweepd workers, each behind a loopback listener.
type stack struct {
	url       string
	srv       *serve.Server
	coord     *dist.Coordinator
	workers   []*dist.Server
	cdn       *store.Store
	tt        *timedTransport
	cdnFS     *timedFS
	journalFS *timedFS
	front     *http.Server   // hpserve's listener
	https     []*http.Server // every listener, front included
	wg        sync.WaitGroup
}

func (e *env) startStack(dir string) (*stack, error) {
	s := &stack{}
	var addrs []string
	for i := 0; i < 2; i++ {
		w := dist.NewServer(dist.ServerOptions{Parallel: 1})
		addr, err := s.listen(timedHandler(w.Handler(), e.tr))
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
		addrs = append(addrs, addr)
	}
	s.tt = &timedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: e.tr}
	s.coord = dist.NewCoordinator(addrs, dist.Options{Hedge: true, Transport: s.tt})
	s.cdnFS = newTimedFS(e.tr, "store")
	cdn, err := store.Open(filepath.Join(dir, "cdn"), store.Options{FS: s.cdnFS})
	if err != nil {
		s.close()
		return nil, err
	}
	s.cdn = cdn
	toks := map[string]string{}
	for _, t := range tenants {
		toks[t.token] = t.name
	}
	s.journalFS = newTimedFS(e.tr, "serve")
	s.srv, err = serve.New(serve.Options{
		Dir:        filepath.Join(dir, "state"),
		Store:      cdn,
		Backend:    s.coord,
		FleetStats: s.coord.FleetLoad,
		Tenants:    toks,
		FS:         s.journalFS,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	addr, err := s.listen(s.srv.Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = s.https[len(s.https)-1]
	s.url = "http://" + addr
	return s, nil
}

func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		hs.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// close stops the front end, the dispatch pool, the coordinator and the
// workers, in that order, and waits for every listener goroutine. Every
// job has ended by then, so listeners close at once: a graceful shutdown
// would wait seconds on a connection a canceled hedge dialed but never
// used.
func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, hs := range s.https {
		hs.Close()
	}
	s.wg.Wait()
}

// serveSnap snapshots the server-side counters a run differences: the
// service's own /v1/stats view, the coordinator's hedges, the workers'
// health and the result CDN's counters.
type serveSnap struct {
	dispatched, shed                  uint64
	rpcs, probes, failures            uint64
	hedges, hedgeWins                 uint64
	workerSims, workerDone            uint64
	hits, misses, writes, quarantined uint64
	fsOps                             uint64
}

func (s *stack) snap() serveSnap {
	v := s.srv.Stats()
	sn := serveSnap{dispatched: v.Dispatched}
	for _, n := range v.Shed {
		sn.shed += n
	}
	sn.rpcs, sn.probes, sn.failures = s.tt.rpcs.Load(), s.tt.probes.Load(), s.tt.failures.Load()
	sn.hedges, sn.hedgeWins = s.coord.HedgeStats()
	for _, w := range s.workers {
		h := w.Health()
		sn.workerSims += h.Sims
		sn.workerDone += h.Done
	}
	sn.hits, sn.misses, sn.writes, sn.quarantined = s.cdn.Hits(), s.cdn.Misses(), s.cdn.Writes(), s.cdn.Quarantined()
	sn.fsOps = s.cdnFS.ops.Load()
	return sn
}

// slicer alternates tracing off and on every slice of a traced serve
// window, starting off. Interleaved slices cancel the drift of a window
// whose CDN fills and whose hedge estimate warms up as it runs.
type slicer struct {
	start time.Time
	slice time.Duration
	stop  chan struct{}
	done  chan struct{}
}

func (e *env) startSlicer(start time.Time) *slicer {
	sl := &slicer{start: start, slice: e.sz.traceSlice, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sl.done)
		defer e.tr.SetOn(false)
		for i := 1; ; i++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(i) * sl.slice)))
			select {
			case <-sl.stop:
				t.Stop()
				return
			case <-t.C:
				e.tr.SetOn(i%2 == 1)
			}
		}
	}()
	return sl
}

// halt stops the slicer and waits for it; tracing is off afterwards.
func (sl *slicer) halt() {
	close(sl.stop)
	<-sl.done
}

// state reports whether a sweep ran wholly inside one slice, and whether
// that slice traced.
func (sl *slicer) state(sr sweepResult) (whole, on bool) {
	a, b := sr.start.Sub(sl.start)/sl.slice, sr.end.Sub(sl.start)/sl.slice
	return a == b, a%2 == 1
}

// startedOn reports whether a sweep began in a traced slice; those are
// the units span totals are divided by.
func (sl *slicer) startedOn(sr sweepResult) bool {
	return (sr.start.Sub(sl.start)/sl.slice)%2 == 1
}

// runServe measures sweeps through the in-process service stack, then
// checks results: hot-set jobs must be byte-identical across tenants,
// and each tenant's first unique jobs must match a local
// experiments.Execute byte for byte.
func runServe(e *env) error {
	var st *stack
	var alpha *client
	setups := 0
	setup, err := timeSetup(e.sz.setups, func(last bool) (float64, error) {
		setups++
		t0 := time.Now()
		s, err := e.startStack(filepath.Join(e.dir, fmt.Sprintf("serve-%d", setups)))
		if err != nil {
			return 0, err
		}
		// One job through the whole stack warms every layer and opens the
		// first tenant's connection.
		c := newClient(s.url, tenants[0].token)
		warm := job{spec: serve.SubmitRequest{Bench: "gzip", Width: 4, Scheme: "base",
			Insts: e.sz.serveInsts[0]/2 + uint64(setups), Priority: "interactive"}, hot: -1}
		r, err := c.submit(warm)
		if err == nil {
			err = c.follow(&r)
		}
		if err == nil && r.state != serve.StateDone {
			err = fmt.Errorf("warm-up job ended %s", r.state)
		}
		d := time.Since(t0).Seconds()
		if err != nil || !last {
			c.close()
			s.close()
		}
		if err != nil {
			return 0, fmt.Errorf("serve warm-up: %w", err)
		}
		st, alpha = s, c
		return d, nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	clients := []*client{alpha, newClient(st.url, tenants[1].token)}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	hot := hotSet(e)
	var mu sync.Mutex
	var sweeps []sweepResult
	startRt, startSnap := readRuntime(), st.snap()
	start := time.Now()
	var sl *slicer
	if e.tr != nil {
		sl = e.startSlicer(start)
	}
	var wg sync.WaitGroup
	for t := range clients {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			gen := newJobGen(e, t, hot)
			for i := 0; e.window(start, i, e.sz.minUnits); i++ {
				sr := clients[t].sweep(e, gen.sweep())
				sr.tenant, sr.index = t, i
				mu.Lock()
				sweeps = append(sweeps, sr)
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	end := time.Now()
	endRt, endSnap := readRuntime(), st.snap()
	if sl != nil {
		sl.halt()
	}
	sort.Slice(sweeps, func(i, j int) bool {
		if sweeps[i].tenant != sweeps[j].tenant {
			return sweeps[i].tenant < sweeps[j].tenant
		}
		return sweeps[i].index < sweeps[j].index
	})

	dg := newDigest()
	e.checkServe(sweeps, clients, dg)
	e.res.StatsSHA256 = dg.sum()

	var walls []float64
	var simInsts uint64
	for _, sr := range sweeps {
		walls = append(walls, sr.wall)
		for _, r := range sr.jobs {
			if r.state == serve.StateDone && !r.cached {
				simInsts += r.spec.Insts
			}
		}
	}
	window := end.Sub(start).Seconds()
	// The runtime counters cover the whole window, client included; in a
	// traced run, tracing allocates little next to HTTP and simulation.
	var rt rtDelta
	rt.add(startRt, endRt, simInsts)
	rt.units = len(sweeps)
	if e.tr == nil {
		e.res.Metrics["setup_s"] = setup
		e.res.Metrics["wall_s"] = median(walls)
		e.res.Metrics["sim_minsts_per_s"] = float64(simInsts) / window / 1e6
		rt.reportAllocs(e.res)
		return nil
	}
	e.serveLayerMetrics(sweeps, sl, window, startSnap, endSnap)
	rt.report(e.res)
	return nil
}

// checkServe runs the post-window result checks.
func (e *env) checkServe(sweeps []sweepResult, clients []*client, dg *digest) {
	result := func(t int, id string) ([]byte, error) {
		status, data, err := clients[t].do(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("result %s: status %d", id, status)
		}
		return bytes.TrimSpace(data), err
	}
	fail := func(format string, args ...any) {
		e.res.count(0, 1)
		e.res.problem(format, args...)
	}

	// Hot-set configs both tenants ran must have identical results.
	hotIDs := map[int][2]string{}
	for _, sr := range sweeps {
		for _, r := range sr.jobs {
			if r.hot >= 0 && r.state == serve.StateDone {
				ids := hotIDs[r.hot]
				if ids[sr.tenant] == "" {
					ids[sr.tenant] = r.id
					hotIDs[r.hot] = ids
				}
			}
		}
	}
	for h, ids := range hotIDs {
		if ids[0] == "" || ids[1] == "" {
			continue
		}
		e.res.count(1, 0)
		a, errA := result(0, ids[0])
		b, errB := result(1, ids[1])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			fail("serve: hot config %d differs across tenants (%v, %v)", h, errA, errB)
		}
	}

	// Each tenant's first four unique jobs of its first two sweeps: a
	// seeded, always-completed sample compared with local execution.
	for t := range clients {
		picked := 0
		for _, sr := range sweeps {
			if sr.tenant != t || sr.index >= 2 {
				continue
			}
			for _, r := range sr.jobs {
				if picked == 4 || r.hot >= 0 || r.state != serve.StateDone {
					continue
				}
				picked++
				e.res.count(1, 0)
				req, err := requestOf(r.spec)
				if err != nil {
					fail("serve: job %s: %v", r.id, err)
					continue
				}
				st, err := experiments.Execute(req)
				if err != nil {
					fail("serve: local execute %s: %v", r.id, err)
					continue
				}
				want, err := json.Marshal(st)
				if err != nil {
					fail("serve: %v", err)
					continue
				}
				got, err := result(t, r.id)
				if err != nil || !bytes.Equal(got, want) {
					fail("serve: job %s result differs from local execution (%v)", r.id, err)
					continue
				}
				if err := dg.add(req.Key(), st); err != nil {
					fail("serve: %v", err)
				}
			}
		}
	}
}

// serveLayerMetrics fills the serve, dist and store metrics of a traced
// run. Client-observed latencies come from every sweep and counters from
// the whole window, per sweep; span totals from the traced slices, per
// sweep started in one.
func (e *env) serveLayerMetrics(sweeps []sweepResult, sl *slicer, window float64, from, to serveSnap) {
	var tracedWalls, plainWalls []float64
	var sub, que, jms, inter []float64
	jobs, hits, units := 0, 0, 0
	for _, sr := range sweeps {
		if whole, on := sl.state(sr); whole && on {
			tracedWalls = append(tracedWalls, sr.wall)
		} else if whole {
			plainWalls = append(plainWalls, sr.wall)
		}
		if sl.startedOn(sr) {
			units++
		}
		for _, r := range sr.jobs {
			sub = append(sub, r.submitMs)
			if r.state != serve.StateDone {
				continue
			}
			jobs++
			if r.cached {
				hits++
			}
			if r.queueMs >= 0 {
				que = append(que, r.queueMs)
			}
			jms = append(jms, r.jobMs)
			if r.spec.Priority == "interactive" {
				inter = append(inter, r.jobMs)
			}
		}
	}
	m := e.res.Metrics
	e.res.spanTail("serve.submit_ms", sub)
	e.res.spanTail("serve.queue_ms", que)
	e.res.spanTail("serve.job_ms", jms)
	m["serve.interactive_ms_p50"] = median(inter)
	if jobs > 0 {
		m["serve.cdn_hit_frac"] = float64(hits) / float64(jobs)
	}
	m["serve.jobs_per_s"] = float64(jobs) / window
	if len(tracedWalls) > 0 && len(plainWalls) > 0 {
		m["bench.trace_overhead"] = median(tracedWalls)/median(plainWalls) - 1
	}
	e.res.note("bench.trace_overhead compares %d traced with %d untraced sweeps", len(tracedWalls), len(plainWalls))

	n := float64(len(sweeps))
	d := func(a, b uint64) float64 { return float64(b-a) / n }
	m["serve.dispatched"] = d(from.dispatched, to.dispatched)
	m["serve.shed"] = d(from.shed, to.shed)
	m["dist.rpcs"] = d(from.rpcs, to.rpcs)
	m["dist.probes"] = d(from.probes, to.probes)
	m["dist.retries"] = d(from.failures, to.failures)
	m["dist.hedges"] = d(from.hedges, to.hedges)
	m["dist.hedge_wins"] = d(from.hedgeWins, to.hedgeWins)
	m["dist.worker_sims"] = d(from.workerSims, to.workerSims)
	// A worker's Done counts completed requests and Sims its memo misses;
	// an abandoned hedge loser is a sim that never completes.
	m["dist.worker_memo_hits"] = max(0, d(from.workerDone, to.workerDone)-d(from.workerSims, to.workerSims))
	m["store.hits"] = d(from.hits, to.hits)
	m["store.misses"] = d(from.misses, to.misses)
	m["store.writes"] = d(from.writes, to.writes)
	m["store.quarantined"] = d(from.quarantined, to.quarantined)
	m["store.fs_ops"] = d(from.fsOps, to.fsOps)
	if units > 0 {
		e.layerMetrics(units, 0)
	}
}
