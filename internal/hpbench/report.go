package hpbench

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/sample"
	"halfprice/internal/store"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// tracedPlan profiles a sampled request's stream and builds its window
// plan, spanned as sample.profile (whose sampled Stream.Next time is
// untimed trace time) and sample.plan. A nil plan means the stream is
// too short to sample and the request runs in full.
func (e *env) tracedPlan(req experiments.Request, p trace.Profile, parent uint64, label string) (*sample.Plan, trace.IntervalProfile, error) {
	if err := req.Sample.Validate(); err != nil {
		return nil, trace.IntervalProfile{}, err
	}
	if req.Config.WarmupInsts != 0 || req.Config.MaxInsts != 0 {
		return nil, trace.IntervalProfile{}, fmt.Errorf("sampled request: the sample spec owns warmup and the budget")
	}
	sp := e.tr.Start("sample.profile", parent, label)
	stream := e.sampled(trace.NewSynthetic(p, req.Budget))
	prof := uarch.ProfileForSampling(req.Config, stream, req.Sample.IntervalInsts)
	sp.EndUntimed(stream.estimate())
	e.sim.addStream(stream)
	sp = e.tr.Start("sample.plan", parent, label)
	plan, ok := sample.BuildPlan(prof, *req.Sample)
	sp.End()
	if !ok {
		return nil, prof, nil
	}
	return &plan, prof, nil
}

// windowsOf converts a plan into the windows uarch.RunSampled simulates,
// as the experiments package does.
func windowsOf(plan *sample.Plan) []uarch.SampleWindow {
	ws := make([]uarch.SampleWindow, len(plan.Windows))
	for i, w := range plan.Windows {
		ws[i] = uarch.SampleWindow{Start: w.Start, Warmup: plan.Spec.WarmupInsts, Measure: w.Insts, Weight: w.Weight, Phase: w.Phase}
	}
	return ws
}

// renderAll regenerates every paper artifact and renders it as
// cmd/report does. A panic inside the sweep is returned as an error.
func renderAll(r *experiments.Runner) (md string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner panic: %v", p)
		}
	}()
	var b strings.Builder
	for _, res := range r.All() {
		b.WriteString(res.Markdown())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// sampledAgg checks and summarises the sampled Stats of a report run.
type sampledAgg struct {
	mu                    sync.Mutex
	runs                  int
	relErrPct, phases     float64
	detailed, represented uint64
	bad                   []string
}

func (a *sampledAgg) add(req experiments.Request, st *uarch.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := st.Sampled
	if m == nil || m.Windows == 0 || !(m.IPCErr95 > 0) || math.IsInf(m.IPCErr95, 0) {
		a.bad = append(a.bad, req.Bench+" "+req.Label())
		return
	}
	a.runs++
	a.relErrPct += 100 * m.RelErr95(st.IPC())
	a.phases += float64(m.Phases)
	a.detailed += m.DetailedInsts
	a.represented += m.TotalInsts
}

// unitStats is what one traced regeneration counted.
type unitStats struct {
	requests, sims, memoHits, storeHits uint64
	queueWait                           time.Duration
	hits, misses, writes, quarantined   uint64
	fsOps                               uint64
}

func (u *unitStats) addTo(v *unitStats) {
	v.requests += u.requests
	v.sims += u.sims
	v.memoHits += u.memoHits
	v.storeHits += u.storeHits
	v.queueWait += u.queueWait
	v.hits += u.hits
	v.misses += u.misses
	v.writes += u.writes
	v.quarantined += u.quarantined
	v.fsOps += u.fsOps
}

// runReport regenerates the paper's evaluation (experiments.Runner.All)
// from a cold, fresh result store once per unit, then replays it warm
// from the last unit's store. Every regeneration must render the same
// markdown, and every simulated request the same Stats.
func runReport(e *env, rs reportSize) error {
	opts := experiments.Options{Insts: rs.insts, Benchmarks: rs.benches, Parallel: e.procs}
	if rs.sampled {
		// The validated sampling spec, seed included: a seed-derived
		// clustering seed moved a regeneration's time by 11% between
		// seeds, so neither report workload takes a seed.
		spec := sample.DefaultSpec()
		opts.Sample = &spec
	}
	bench := "gzip"
	if len(rs.benches) > 0 {
		bench = rs.benches[0]
	}
	setups := 0
	setup, err := timeSetup(e.sz.setups, func(bool) (float64, error) {
		// Open a fresh store (the first open also fingerprints the
		// binary) and page the simulator in with one untimed request.
		t0 := time.Now()
		setups++
		if _, err := store.Open(filepath.Join(e.dir, fmt.Sprintf("setup-%d", setups)), store.Options{}); err != nil {
			return 0, err
		}
		req := experiments.Request{Bench: bench, Config: uarch.Config4Wide(), Budget: rs.insts, Sample: opts.Sample}
		if _, err := experiments.Execute(req); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}

	dg := newDigest()
	var agg sampledAgg
	var mdFirst string
	var last *store.Store
	walls := map[bool][]float64{}
	var traced unitStats
	var rt rtDelta
	sims := uint64(0)
	start := time.Now()
	for u := 0; e.window(start, u, e.sz.minUnits); u++ {
		on := e.tracedUnit(u)
		e.res.Attempted++
		record := func(req experiments.Request, st *uarch.Stats) {
			if err := dg.add(req.Key(), st); err != nil {
				e.res.problem("report unit %d: %v", u, err)
			}
			if rs.sampled && u == 0 {
				agg.add(req, st)
			}
		}
		before := readRuntime()
		out, err := e.reportUnit(opts, u, on, record)
		if err != nil {
			return err
		}
		last = out.st
		if !on {
			rt.add(before, readRuntime(), out.stats.sims*rs.insts)
		}
		switch {
		case out.err != nil:
			e.res.Failed++
			e.res.problem("report unit %d: %v", u, out.err)
			continue
		case u == 0:
			mdFirst = out.md
			sims = out.stats.sims
		case out.md != mdFirst:
			e.res.Failed++
			e.res.problem("report unit %d rendered different markdown from unit 0", u)
		}
		walls[on] = append(walls[on], out.wall)
		if on {
			out.stats.addTo(&traced)
		}
	}
	if rs.sampled {
		if len(agg.bad) > 0 {
			e.res.problem("%d sampled runs lack sampling metadata with a CI, e.g. %s", len(agg.bad), agg.bad[0])
		}
		if agg.runs == 0 {
			e.res.problem("no sampled runs recorded")
		}
	}

	// Warm replays: a new Runner over the last cold store serves every
	// request from disk or its memo; the markdown must not change.
	runtime.GC()
	var warm []float64
	for i := 0; i < rs.warmReplays && last != nil; i++ {
		e.res.Attempted++
		o := opts
		o.Store = last
		t0 := time.Now()
		md, err := renderAll(experiments.NewRunner(o))
		warm = append(warm, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil || md != mdFirst {
			e.res.Failed++
			e.res.problem("warm replay %d: markdown differs from the cold regeneration (err %v)", i, err)
		}
	}
	e.res.StatsSHA256 = dg.sum()

	wall := median(walls[false])
	if e.tr == nil {
		e.res.Metrics["setup_s"] = setup
		e.res.Metrics["wall_s"] = wall
		e.res.Metrics["sim_minsts_per_s"] = float64(sims*rs.insts) / wall / 1e6
		rt.reportAllocs(e.res)
		return nil
	}
	m := e.res.Metrics
	units := len(walls[true])
	if units == 0 {
		return nil
	}
	m["bench.trace_overhead"] = median(walls[true])/wall - 1
	capacity := 0.0
	for _, w := range walls[true] {
		capacity += w * float64(e.procs)
	}
	e.layerMetrics(units, capacity)
	n := float64(units)
	m["experiments.requests"] = float64(traced.requests) / n
	m["experiments.sims"] = float64(traced.sims) / n
	m["experiments.memo_hits"] = float64(traced.memoHits) / n
	m["experiments.store_hits"] = float64(traced.storeHits) / n
	if traced.sims > 0 {
		m["experiments.dedup_ratio"] = float64(traced.requests) / float64(traced.sims)
	}
	m["experiments.queue_wait_s"] = traced.queueWait.Seconds() / n
	m["experiments.warm_ms"] = median(warm)
	m["store.hits"] = float64(traced.hits) / n
	m["store.misses"] = float64(traced.misses) / n
	m["store.writes"] = float64(traced.writes) / n
	m["store.quarantined"] = float64(traced.quarantined) / n
	m["store.fs_ops"] = float64(traced.fsOps) / n
	if agg.runs > 0 {
		m["sample.ipc_ci95_pct"] = agg.relErrPct / float64(agg.runs)
		m["sample.phases_mean"] = agg.phases / float64(agg.runs)
	}
	rt.report(e.res)
	return nil
}

// reportOut is one regeneration's outcome.
type reportOut struct {
	wall  float64
	md    string
	err   error // the sweep itself failed
	st    *store.Store
	stats unitStats
}

// reportUnit runs one cold regeneration into a fresh store. Traced units
// execute through tracedBackend, write the store through a timed FS and
// measure queue waits with an Observer.
func (e *env) reportUnit(opts experiments.Options, u int, on bool, record func(experiments.Request, *uarch.Stats)) (reportOut, error) {
	var sopts store.Options
	var fs *timedFS
	var inner experiments.Backend = experiments.LocalBackend{}
	var qo *queueObserver
	if on {
		fs = newTimedFS(e.tr, "store")
		sopts.FS = fs
		inner = tracedBackend{e}
		qo = newQueueObserver()
		opts.Observer = qo
	}
	st, err := store.Open(filepath.Join(e.dir, fmt.Sprintf("store-%d", u)), sopts)
	if err != nil {
		return reportOut{}, err
	}
	opts.Store = st
	opts.Backend = recorder{inner: inner, record: record}
	r := experiments.NewRunner(opts)
	e.tr.SetOn(on)
	t0 := time.Now()
	md, rerr := renderAll(r)
	wall := time.Since(t0).Seconds()
	e.tr.SetOn(false)
	out := reportOut{wall: wall, md: md, err: rerr, st: st, stats: unitStats{
		requests: r.Sims() + r.Hits() + r.StoreHits(),
		sims:     r.Sims(), memoHits: r.Hits(), storeHits: r.StoreHits(),
		hits: st.Hits(), misses: st.Misses(), writes: st.Writes(), quarantined: st.Quarantined(),
	}}
	if on {
		out.stats.queueWait = qo.waited()
		out.stats.fsOps = fs.ops.Load()
	}
	return out, nil
}
