package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/progress"
	"halfprice/internal/store"
	"halfprice/internal/uarch"
)

// defaultMemoCap bounds the completed-result memo when ServerOptions
// leaves MemoCap zero: enough to serve a whole sweep's worth of
// duplicates, small enough that a long-lived daemon serving many sweeps
// stays bounded.
const defaultMemoCap = 512

// ServerOptions configures a worker Server.
type ServerOptions struct {
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS). Excess
	// requests queue on the semaphore; the coordinator's per-request
	// timeout covers queueing time.
	Parallel int
	// MemoCap bounds how many completed results the singleflight memo
	// retains (0 = default 512). The oldest completed entries are
	// evicted first; in-flight entries are never evicted, so dedup of
	// concurrent duplicates is unaffected.
	MemoCap int
	// Token, when non-empty, is required as "Authorization: Bearer
	// <token>" on /run and /drain; anything else gets 401. /healthz
	// stays open for probes.
	Token string
	// PreRun, when non-nil, runs before every accepted /run request —
	// the chaos harness's worker-side seam (cmd/sweepd's -chaos-seed
	// injects deterministic pre-simulation delays through it so a smoke
	// fleet has a reproducibly slow worker). It must not mutate req.
	PreRun func(req experiments.Request)
	// Logf, when non-nil, receives one line per request lifecycle event
	// (cmd/sweepd wires it to log.Printf).
	Logf func(format string, args ...any)
}

// Server executes simulation requests for remote coordinators. It is the
// sweepd daemon's engine; Handler exposes it over HTTP. Results are
// memoised in a store.Memo, the singleflight the in-process Runner uses:
// concurrent or repeated requests for the same simulation run it
// once — the worker-side half of fleet-wide deduplication (the
// coordinator's shard affinity is the other half). The memo is bounded:
// completed entries beyond MemoCap are evicted oldest-first, so a
// long-lived daemon serving many sweeps holds a cap's worth of Stats,
// not every result it ever computed.
type Server struct {
	sem      chan struct{}
	token    string
	preRun   func(req experiments.Request)
	logf     func(format string, args ...any)
	draining atomic.Bool
	running  atomic.Int64
	done     atomic.Uint64
	sims     atomic.Uint64

	memo *store.Memo[string, *uarch.Stats]
}

// NewServer returns a worker server.
func NewServer(opts ServerOptions) *Server {
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	memoCap := opts.MemoCap
	if memoCap <= 0 {
		memoCap = defaultMemoCap
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		sem:    make(chan struct{}, par),
		token:  opts.Token,
		preRun: opts.PreRun,
		logf:   logf,
		memo:   store.NewMemo[string, *uarch.Stats](memoCap),
	}
}

// Drain stops the server accepting new /run requests; in-flight
// simulations complete. /healthz turns 503 so coordinators evict this
// worker instead of timing out on it.
func (s *Server) Drain() { s.draining.Store(true) }

// Health snapshots the server state for /healthz and /drain responses.
func (s *Server) Health() Health {
	return Health{
		OK:       !s.draining.Load(),
		Draining: s.draining.Load(),
		Running:  s.running.Load(),
		Done:     s.done.Load(),
		Sims:     s.sims.Load(),
	}
}

// Handler returns the worker's HTTP API. /run and /drain require the
// configured token; /healthz answers anyone (it carries liveness and
// queue depth only, and coordinators probe it unauthenticated).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(RunPath, requireToken(s.token, s.handleRun))
	mux.HandleFunc(HealthzPath, s.handleHealthz)
	mux.HandleFunc(DrainPath, requireToken(s.token, s.handleDrain))
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	w.Header().Set("Content-Type", "application/json")
	if h.Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s.Drain()
	s.logf("sweepd: draining (%d running)", s.running.Load())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Health())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req experiments.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}

	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	start := time.Now()
	// emit writes one stream line with an explicit counter snapshot and
	// reports whether the client is still there: once an Encode fails
	// (broken pipe — the coordinator gave up and re-dispatched) the
	// stream is dead and the handler must wind down, not keep writing.
	streamOK := true
	emit := func(m Message, running int64, done uint64) bool {
		if !streamOK {
			return false
		}
		m.T = time.Since(start).Seconds()
		m.Running = int(running)
		m.Done = int(done)
		if err := enc.Encode(m); err != nil {
			streamOK = false
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// Queue for a simulation slot — but give up if the client does: a
	// coordinator that times out and re-dispatches must not leave this
	// handler camped on the semaphore to later simulate for nobody. The
	// coordinator's deadline header bounds the wait too, so the job's
	// one budget is honored even when the abandoned connection lingers.
	ctx := r.Context()
	if ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64); err == nil && ms > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	label := req.Label()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.logf("sweepd: run %s %s abandoned while queued", req.Bench, label)
		return
	}
	release := func() {
		s.running.Add(-1)
		<-s.sem
	}

	s.running.Add(1)
	s.logf("sweepd: run %s %s (%d insts)", req.Bench, label, req.Budget)
	if !emit(Message{Event: progress.Event{Event: "start", Bench: req.Bench, Config: label, Insts: req.Budget}}, s.running.Load(), s.done.Load()) {
		release()
		s.logf("sweepd: run %s %s: client gone before start", req.Bench, label)
		return
	}

	// Execute in a goroutine so an abandoned request releases its slot
	// immediately; the memoised computation runs to completion either
	// way, so a re-dispatch of the same key (or a retry landing back
	// here) joins the result instead of simulating again.
	type outcome struct {
		st  *uarch.Stats
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		if s.preRun != nil {
			s.preRun(req)
		}
		st, err := s.execute(req)
		res <- outcome{st, err}
	}()
	var out outcome
	select {
	case out = <-res:
	case <-ctx.Done():
		release()
		s.logf("sweepd: run %s %s abandoned mid-run; finishing for the memo", req.Bench, label)
		return
	}

	if out.err != nil {
		running := s.running.Load()
		release()
		s.logf("sweepd: run %s %s failed: %v", req.Bench, label, out.err)
		emit(Message{Event: progress.Event{Event: "error"}, Error: out.err.Error()}, running, s.done.Load())
		return
	}
	// Snapshot the counters before the decrement so the terminal lines
	// describe a state that includes this run: Running still counts it,
	// Done counts it too. Reading the live atomics after release() let
	// concurrent handlers shift the counters first, so a worker's
	// reported totals never included the run they were attached to.
	running := s.running.Load()
	done := s.done.Add(1)
	release()
	emit(Message{Event: progress.Event{Event: "finish", Bench: req.Bench, Config: label, Insts: req.Budget}}, running, done)
	emit(Message{Event: progress.Event{Event: "result"}, Stats: out.st}, running, done)
}

// execute runs one request through the shared in-process execution path,
// deduplicated: the first request for a key simulates, every concurrent
// or later duplicate joins its result. Panics from impossible remote
// configurations (uarch.Config validation) surface as errors, not as a
// downed worker, and the memo hands that error to every duplicate.
func (s *Server) execute(req experiments.Request) (*uarch.Stats, error) {
	st, err, _ := s.memo.Do(req.Key(), func() (st *uarch.Stats, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("simulation panic: %v", p)
			}
		}()
		s.sims.Add(1)
		return experiments.Execute(req)
	})
	return st, err
}
