package hpbench

import (
	"context"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"halfprice/internal/chaos"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// streamSampleEvery is the Stream.Next sampling period: timing every
// call would cost more than the trace generator itself.
const streamSampleEvery = 16

// sampledStream wraps a trace.Stream and times every 16th Next call, so
// the stream's total cost is estimated as 16 × the sampled time. Each
// sample subtracts the clock's own cost, which is the same order as one
// Next call.
type sampledStream struct {
	s     trace.Stream
	floor time.Duration
	calls uint64
	timed time.Duration
}

func (e *env) sampled(s trace.Stream) *sampledStream {
	return &sampledStream{s: s, floor: e.tr.timerCost}
}

func (t *sampledStream) Next() (trace.DynInst, bool) {
	t.calls++
	if t.calls%streamSampleEvery != 0 {
		return t.s.Next()
	}
	t0 := time.Now()
	d, ok := t.s.Next()
	t.timed += max(time.Since(t0)-t.floor, 0)
	return d, ok
}

// estimate is the extrapolated cost of every Next call so far.
func (t *sampledStream) estimate() time.Duration { return t.timed * streamSampleEvery }

// simCounters accumulates what the simulation layers did during traced
// units, across concurrent simulations.
type simCounters struct {
	nextTimedNs atomic.Int64  // sampled Stream.Next time
	nextTimed   atomic.Uint64 // sampled Stream.Next calls
	cycles      atomic.Uint64 // cycles of full (unsampled) runs
	insts       atomic.Uint64 // committed instructions of full runs
	detailed    atomic.Uint64 // sampled runs: detailed instructions
	represented atomic.Uint64 // sampled runs: whole-run instructions
}

func (c *simCounters) addStream(s *sampledStream) {
	c.nextTimedNs.Add(int64(s.timed))
	c.nextTimed.Add(s.calls / streamSampleEvery)
}

// tracedSim runs one full simulation over s with a span around each
// layer boundary under parent: uarch.new and uarch.run, whose sampled
// Stream.Next time is its untimed trace-layer child time.
func (e *env) tracedSim(cfg uarch.Config, s trace.Stream, parent uint64, req string) *uarch.Stats {
	stream := e.sampled(s)
	sp := e.tr.Start("uarch.new", parent, req)
	sim := uarch.New(cfg, stream)
	sp.End()
	sp = e.tr.Start("uarch.run", parent, req)
	st := sim.Run()
	sp.EndUntimed(stream.estimate())
	e.sim.addStream(stream)
	e.sim.cycles.Add(st.Cycles)
	e.sim.insts.Add(st.Committed)
	return st
}

// tracedExecute is experiments.Execute rebuilt from the layers' public
// API with spans at each boundary. For sampled requests it runs the same
// three steps as the experiments package — uarch.ProfileForSampling,
// sample.BuildPlan, uarch.RunSampled — and the tests and every traced
// report run check that its Stats are byte-identical to Execute's.
func (e *env) tracedExecute(req experiments.Request, parent uint64) (*uarch.Stats, error) {
	if req.UseKernels {
		return experiments.Execute(req)
	}
	p, ok := trace.ProfileByName(req.Bench)
	if !ok {
		return nil, errUnknownBench(req.Bench)
	}
	label := req.Bench + " " + req.Label()
	if req.Sample == nil {
		sp := e.tr.Start("trace.build", parent, label)
		s := trace.NewSynthetic(p, req.Budget)
		sp.End()
		return e.tracedSim(req.Config, s, parent, label), nil
	}
	plan, prof, err := e.tracedPlan(req, p, parent, label)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		full := req
		full.Sample = nil
		return e.tracedExecute(full, parent)
	}
	sp := e.tr.Start("uarch.sampled", parent, label)
	stream := e.sampled(trace.NewSynthetic(p, req.Budget))
	st := uarch.RunSampled(req.Config, stream, windowsOf(plan), prof.Total)
	sp.EndUntimed(stream.estimate())
	e.sim.addStream(stream)
	if st.Sampled != nil {
		e.sim.detailed.Add(st.Sampled.DetailedInsts)
		e.sim.represented.Add(st.Sampled.TotalInsts)
	}
	return st, nil
}

// tracedBackend is an experiments.Backend that executes in-process
// through tracedExecute, under one experiments.exec span per request.
type tracedBackend struct{ e *env }

func (b tracedBackend) Execute(ctx context.Context, req experiments.Request, obs experiments.Observer) (*uarch.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if obs != nil {
		obs.RunStarted(req.Bench, req.Label(), req.Budget)
	}
	sp := b.e.tr.Start("experiments.exec", 0, req.Bench+" "+req.Label())
	st, err := b.e.tracedExecute(req, sp.ID())
	sp.End()
	if err != nil {
		return nil, err
	}
	if obs != nil {
		obs.RunFinished(req.Bench, req.Label(), req.Budget)
	}
	return st, nil
}

// recorder wraps a Backend and hands every result to record.
type recorder struct {
	inner  experiments.Backend
	record func(experiments.Request, *uarch.Stats)
}

func (r recorder) Execute(ctx context.Context, req experiments.Request, obs experiments.Observer) (*uarch.Stats, error) {
	st, err := r.inner.Execute(ctx, req, obs)
	if err == nil {
		r.record(req, st)
	}
	return st, err
}

// queueObserver measures how long each run waits between RunQueued and
// RunStarted. Runs are matched first-in first-out per (bench, config)
// label, since the events carry no request identity.
type queueObserver struct {
	mu     sync.Mutex
	queued map[string][]time.Time
	wait   time.Duration
}

func newQueueObserver() *queueObserver { return &queueObserver{queued: map[string][]time.Time{}} }

func (o *queueObserver) RunQueued(bench, config string, insts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := bench + " " + config
	o.queued[k] = append(o.queued[k], time.Now())
}

func (o *queueObserver) RunStarted(bench, config string, insts uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := bench + " " + config
	if q := o.queued[k]; len(q) > 0 {
		o.wait += time.Since(q[0])
		o.queued[k] = q[1:]
	}
}

func (o *queueObserver) RunFinished(bench, config string, insts uint64) {}

func (o *queueObserver) waited() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.wait
}

// timedFS is a chaos.FS that counts its operations and, while the tracer
// is on, spans each as "<layer>.<op>": read, write, fsync, rename, open
// and meta (mkdir, remove, stat).
type timedFS struct {
	base  chaos.FS
	tr    *Tracer
	layer string
	ops   atomic.Uint64
}

func newTimedFS(tr *Tracer, layer string) *timedFS {
	return &timedFS{base: chaos.OS{}, tr: tr, layer: layer}
}

func (f *timedFS) span(op string) Active {
	f.ops.Add(1)
	return f.tr.Start(f.layer+"."+op, 0, "")
}

func (f *timedFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.span("meta").End()
	return f.base.MkdirAll(path, perm)
}

func (f *timedFS) Open(name string) (chaos.File, error) {
	sp := f.span("open")
	fl, err := f.base.Open(name)
	sp.End()
	return f.wrap(fl, err)
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	sp := f.span("open")
	fl, err := f.base.OpenFile(name, flag, perm)
	sp.End()
	return f.wrap(fl, err)
}

func (f *timedFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	sp := f.span("open")
	fl, err := f.base.CreateTemp(dir, pattern)
	sp.End()
	return f.wrap(fl, err)
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	defer f.span("read").End()
	return f.base.ReadFile(name)
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	defer f.span("rename").End()
	return f.base.Rename(oldpath, newpath)
}

func (f *timedFS) Remove(name string) error {
	defer f.span("meta").End()
	return f.base.Remove(name)
}

func (f *timedFS) Stat(name string) (os.FileInfo, error) {
	defer f.span("meta").End()
	return f.base.Stat(name)
}

func (f *timedFS) wrap(fl chaos.File, err error) (chaos.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f}, nil
}

type timedFile struct {
	chaos.File
	fs *timedFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	defer t.fs.span("write").End()
	return t.File.Write(p)
}

func (t *timedFile) Sync() error {
	defer t.fs.span("fsync").End()
	return t.File.Sync()
}

// timedTransport is the coordinator's http.RoundTripper: it counts
// health probes and /run RPCs and, while the tracer is on, spans each
// RPC as dist.rpc from request to response-body close. A failed RPC —
// transport error or non-200 — is one the coordinator re-dispatches; an
// RPC canceled by its own context (a hedge's loser) is not a failure.
type timedTransport struct {
	base     http.RoundTripper
	tr       *Tracer
	probes   atomic.Uint64
	rpcs     atomic.Uint64
	failures atomic.Uint64
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != dist.RunPath {
		t.probes.Add(1)
		return t.base.RoundTrip(r)
	}
	t.rpcs.Add(1)
	sp := t.tr.Start("dist.rpc", 0, "")
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		if r.Context().Err() == nil {
			t.failures.Add(1)
		}
		sp.End()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		t.failures.Add(1)
	}
	if sp.ID() != 0 {
		resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	}
	return resp, nil
}

// spanBody ends its RPC span when the coordinator closes the body.
type spanBody struct {
	io.ReadCloser
	sp   Active
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.End)
	return err
}

// timedHandler spans each /run request a worker serves as dist.worker.
func timedHandler(h http.Handler, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := Active{}
		if r.URL.Path == dist.RunPath {
			sp = tr.Start("dist.worker", 0, "")
		}
		h.ServeHTTP(w, r)
		sp.End()
	})
}
