// Package serve is the multi-tenant simulation-as-a-service layer: a
// long-running front end over the experiment engine that turns "a sweep
// you run" into "a service users hit". It owns a persistent priority
// job queue (journaled to disk, so a killed server resumes queued work
// on restart), per-tenant admission control with quotas and fair-share
// scheduling, an HTTP API with live NDJSON event streams per job, and a
// shared cross-tenant result CDN backed by internal/store — identical
// configs submitted by different tenants are served from the cache in
// microseconds without touching the simulation fleet.
//
// Execution goes through the experiments.Backend seam, so the same
// server dispatches to an in-process pool (experiments.LocalBackend) or
// to a sweepd fleet (dist.NewCoordinator) without code changes.
// cmd/hpserve is the daemon wrapping this package.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"halfprice/internal/chaos"
	"halfprice/internal/experiments"
	"halfprice/internal/store"
	"halfprice/internal/uarch"
)

// Defaults for the zero-value Options fields.
const (
	defaultWorkers    = 2
	defaultMaxQueue   = 256
	defaultQuota      = 32
	defaultMaxInsts   = 5_000_000
	defaultHistoryCap = 1024
	// defaultJobSec seeds the retry-after estimate before any job has
	// completed.
	defaultJobSec = 2.0
	// ewmaAlpha weights the most recent job duration in the moving
	// average behind Retry-After estimates.
	ewmaAlpha = 0.3
	// fleetOverloadPerWorker is the probe-cached Health.Running load per
	// healthy worker beyond which the fleet counts as saturated for
	// admission purposes.
	fleetOverloadPerWorker = 4
)

// Options configures a Server. Zero fields take the defaults above.
type Options struct {
	// Dir is the state directory holding the job journal. Required.
	Dir string
	// Backend executes dispatched jobs; nil means in-process
	// (experiments.LocalBackend).
	Backend experiments.Backend
	// Store is the shared result CDN; nil disables it (every job then
	// dispatches to the backend).
	Store *store.Store
	// Workers bounds concurrently dispatched jobs.
	Workers int
	// MaxQueue bounds total queued jobs; submits beyond it are rejected
	// with a retry-after hint.
	MaxQueue int
	// TenantQuota bounds one tenant's queued jobs.
	TenantQuota int
	// MaxInsts bounds one job's instruction budget.
	MaxInsts uint64
	// HistoryCap bounds how many terminal jobs the journal retains
	// across restarts.
	HistoryCap int
	// Tenants maps bearer token -> tenant name. Empty means open mode:
	// all requests are the "anonymous" tenant.
	Tenants map[string]string
	// FleetStats reports the dispatch fleet's probe-cached telemetry
	// (healthy workers, summed Health.Running) for admission control and
	// /v1/stats; nil when the backend is local.
	FleetStats func() (workers int, running int64)
	// FS is the filesystem the journal writes through; nil means the
	// real one. The chaos harness injects disk faults here.
	FS chaos.FS
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Backend == nil {
		o.Backend = experiments.LocalBackend{}
	}
	if o.Workers <= 0 {
		o.Workers = defaultWorkers
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = defaultMaxQueue
	}
	if o.TenantQuota <= 0 {
		o.TenantQuota = defaultQuota
	}
	if o.MaxInsts == 0 {
		o.MaxInsts = defaultMaxInsts
	}
	if o.HistoryCap <= 0 {
		o.HistoryCap = defaultHistoryCap
	}
	if o.FS == nil {
		o.FS = chaos.OS{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the service core: queue, journal, dispatch pool, tenant
// accounting. Create with New, serve its Handler, Close on shutdown.
type Server struct {
	opts    Options
	journal *journal
	start   time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    jobQueue
	seq      uint64
	running  int
	done     int
	failed   int
	canceled int
	// storeHits counts jobs served from the result CDN (at submit or at
	// dispatch); dispatched counts jobs that reached the backend.
	storeHits  uint64
	dispatched uint64
	ewmaJobSec float64
	// deadlineExceeded counts jobs that failed because their submit-time
	// budget ran out; shed counts brownout rejections per class.
	deadlineExceeded int
	shed             [numPriorities]uint64

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// New opens (and replays) the journal in opts.Dir, restores queued and
// finished jobs, and starts the dispatch pool. Jobs that were running
// when the previous process died replay as queued and re-dispatch —
// simulations are deterministic and the store dedupes, so re-running is
// safe.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("serve: Options.Dir is required")
	}
	jl, replayed, err := openJournal(opts.FS, opts.Dir, opts.HistoryCap)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		journal: jl,
		start:   time.Now(),
		jobs:    map[string]*Job{},
		wake:    make(chan struct{}, opts.Workers),
		stop:    make(chan struct{}),
	}
	resumed := 0
	for i := range replayed {
		j, err := s.restoreJob(&replayed[i])
		if err != nil {
			jl.close()
			return nil, err
		}
		if j.state == StateQueued {
			resumed++
		}
	}
	if resumed > 0 {
		opts.Logf("serve: resuming %d queued job(s) from journal", resumed)
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.workerLoop()
	}
	// One wake per resumed job so the pool picks the backlog up
	// immediately.
	for i := 0; i < resumed; i++ {
		s.wakeOne()
	}
	return s, nil
}

// restoreJob rebuilds one replayed job. Terminal jobs get a closed
// event log (queued, hit if cached, terminal line) so late stream
// subscribers still see a complete history; queued jobs re-enter the
// queue.
func (s *Server) restoreJob(r *replayedJob) (*Job, error) {
	pri, err := ParsePriority(r.rec.Priority)
	if err != nil {
		return nil, fmt.Errorf("serve: journal job %s: %w", r.rec.ID, err)
	}
	j := &Job{
		ID:        r.rec.ID,
		Seq:       r.rec.Seq,
		Tenant:    r.rec.Tenant,
		Priority:  pri,
		Spec:      r.rec.Spec,
		Request:   r.rec.Request,
		state:     r.state,
		cached:    r.cached,
		errMsg:    r.errMsg,
		submitted: r.rec.submittedTime(),
		events:    newEventLog(),
	}
	if r.state == StateDone && len(r.stats) > 0 {
		var st uarch.Stats
		if err := json.Unmarshal(r.stats, &st); err != nil {
			return nil, fmt.Errorf("serve: journal job %s: decoding stats: %w", r.rec.ID, err)
		}
		j.result = &st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.Seq >= s.seq {
		s.seq = j.Seq + 1
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	switch j.state {
	case StateQueued:
		s.queue.push(j)
		j.events.publish(s.eventLocked(j, "queued", "", ""))
	case StateDone:
		s.done++
		if j.cached {
			s.storeHits++
			j.events.publish(s.eventLocked(j, "queued", "", ""))
			hit := s.eventLocked(j, "hit", "", "")
			hit.Source = "cache"
			j.events.publish(hit)
		} else {
			j.events.publish(s.eventLocked(j, "queued", "", ""))
		}
		j.events.publish(s.eventLocked(j, "done", StateDone, ""))
	case StateFailed:
		s.failed++
		j.events.publish(s.eventLocked(j, "queued", "", ""))
		j.events.publish(s.eventLocked(j, "error", StateFailed, j.errMsg))
	case StateCanceled:
		s.canceled++
		j.events.publish(s.eventLocked(j, "queued", "", ""))
		j.events.publish(s.eventLocked(j, "canceled", StateCanceled, ""))
	}
	return j, nil
}

// AdmissionError is a rejected submit: the service is over its queue
// bound (or the tenant over quota) and the client should retry after
// the hinted delay. The API layer renders it as 429 + Retry-After.
type AdmissionError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("admission rejected: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// Submit validates nothing (the API layer resolved spec already); it
// admits, journals and enqueues one job for tenant. The CDN fast path
// runs first: a result already in the shared store completes the job
// immediately — no admission charge, no fleet dispatch, stream reports
// a cache hit.
func (s *Server) Submit(tenant string, spec SubmitRequest, req experiments.Request) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.stop:
		return nil, fmt.Errorf("serve: server is shut down")
	default:
	}

	// CDN fast path: identical config already computed (by any tenant,
	// any process sharing the cache dir) — serve it without admission
	// or dispatch.
	if st, ok := s.opts.Store.Get(req.Key()); ok {
		j := s.newJobLocked(tenant, spec, req)
		j.state = StateDone
		j.cached = true
		j.result = st
		j.finished = time.Now()
		if err := s.journalSubmitLocked(j); err != nil {
			return nil, err
		}
		data, merr := json.Marshal(st)
		if merr != nil {
			return nil, fmt.Errorf("serve: encoding cached stats: %w", merr)
		}
		if err := s.journal.append(journalRecord{Op: "done", ID: j.ID, Cached: true, Stats: data}); err != nil {
			return nil, err
		}
		s.registerLocked(j)
		s.done++
		s.storeHits++
		j.events.publish(s.eventLocked(j, "queued", "", ""))
		hit := s.eventLocked(j, "hit", "", "")
		hit.Source = "cache"
		j.events.publish(hit)
		j.events.publish(s.eventLocked(j, "done", StateDone, ""))
		return j, nil
	}

	if err := s.admitLocked(tenant, spec.priority); err != nil {
		return nil, err
	}
	j := s.newJobLocked(tenant, spec, req)
	if err := s.journalSubmitLocked(j); err != nil {
		return nil, err
	}
	s.registerLocked(j)
	s.queue.push(j)
	j.events.publish(s.eventLocked(j, "queued", "", ""))
	s.wakeOne() // non-blocking; safe under mu
	return j, nil
}

// newJobLocked allocates a job (not yet registered or journaled).
func (s *Server) newJobLocked(tenant string, spec SubmitRequest, req experiments.Request) *Job {
	j := &Job{
		ID:        fmt.Sprintf("j%06d", s.seq),
		Seq:       s.seq,
		Tenant:    tenant,
		Priority:  spec.priority,
		Spec:      spec,
		Request:   req,
		state:     StateQueued,
		submitted: time.Now(),
		events:    newEventLog(),
	}
	s.seq++
	return j
}

func (s *Server) registerLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

func (s *Server) journalSubmitLocked(j *Job) error {
	return s.journal.append(journalRecord{Op: "submit", Job: &jobRecord{
		ID:        j.ID,
		Seq:       j.Seq,
		Tenant:    j.Tenant,
		Priority:  j.Priority.String(),
		Spec:      j.Spec,
		Request:   j.Request,
		Submitted: float64(j.submitted.UnixNano()) / 1e9,
	}})
}

// admitLocked is the admission decision: per-tenant quota, global
// queue bound, then the brownout floor — as pressure builds, whole
// classes shed (background first, batch next) rather than every class
// degrading at once; interactive work is only refused when the queue is
// hard-full.
func (s *Server) admitLocked(tenant string, pri Priority) error {
	if d := s.queue.tenantDepth(tenant); d >= s.opts.TenantQuota {
		return &AdmissionError{
			Reason:     fmt.Sprintf("tenant %q at quota (%d queued jobs)", tenant, d),
			RetryAfter: s.retryAfterLocked(d),
		}
	}
	depth := s.queue.depth()
	if depth >= s.opts.MaxQueue {
		return &AdmissionError{
			Reason:     fmt.Sprintf("queue full (%d jobs)", depth),
			RetryAfter: s.retryAfterLocked(depth),
		}
	}
	if floor := s.shedFloorLocked(); pri < floor {
		s.shed[pri]++
		return &AdmissionError{
			Reason: fmt.Sprintf("shedding %s class under load (%d queued, admitting %s and above)",
				pri, depth, floor),
			RetryAfter: s.retryAfterLocked(depth),
		}
	}
	return nil
}

// shedFloorLocked is the brownout signal: the lowest priority class
// admission currently accepts. Pressure is the queue depth relative to
// MaxQueue plus the probe-cached fleet saturation bit. Background jobs
// shed first — whenever the fleet is saturated or the queue is half
// full. Batch jobs shed once the fleet is saturated with a real backlog
// (a quarter of MaxQueue queued) or the queue is three-quarters full
// regardless of fleet state. Interactive jobs are only ever refused by
// the hard queue-full bound above.
func (s *Server) shedFloorLocked() Priority {
	depth := s.queue.depth()
	sat := s.fleetSaturatedLocked()
	switch {
	case sat && depth*4 >= s.opts.MaxQueue || depth*4 >= 3*s.opts.MaxQueue:
		return Interactive
	case sat || depth*2 >= s.opts.MaxQueue:
		return Batch
	default:
		return Background
	}
}

// fleetSaturatedLocked reports whether the probe-cached fleet load is
// past the per-worker overload threshold.
func (s *Server) fleetSaturatedLocked() bool {
	if s.opts.FleetStats == nil {
		return false
	}
	workers, running := s.opts.FleetStats()
	return workers > 0 && running >= int64(workers)*fleetOverloadPerWorker
}

// retryAfterLocked estimates when backlog of the given depth will have
// drained: depth × average job seconds / dispatch parallelism, clamped
// to [1s, 5m].
func (s *Server) retryAfterLocked(depth int) time.Duration {
	per := s.ewmaJobSec
	if per <= 0 {
		per = defaultJobSec
	}
	sec := math.Ceil(float64(depth+1) * per / float64(s.opts.Workers))
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return time.Duration(sec) * time.Second
}

// eventLocked builds a stream event for j with the service-wide gauges
// at this instant. kind is the progress-event kind; state non-empty
// marks the terminal line.
func (s *Server) eventLocked(j *Job, kind, state, errMsg string) Event {
	e := Event{
		Job:    j.ID,
		Tenant: j.Tenant,
		State:  state,
		Cached: j.cached,
		Error:  errMsg,
	}
	e.Event.Event = kind
	e.Bench = j.Request.Bench
	e.Config = j.Request.Label()
	e.Insts = j.Request.Budget
	e.T = time.Since(j.submitted).Seconds()
	e.Queued = s.queue.depth()
	e.Running = s.running
	e.Done = s.done + s.failed + s.canceled
	return e
}

// wakeOne nudges the dispatch pool; dropping the token when the buffer
// is full is fine — a full buffer already wakes every worker.
func (s *Server) wakeOne() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// workerLoop is one dispatch worker: wait for work, drain the queue,
// repeat until Close.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		for {
			j := s.dequeue()
			if j == nil {
				break
			}
			s.execute(j)
			select {
			case <-s.stop:
				return
			default:
			}
		}
	}
}

// dequeue pops the next job, marks it running and journals the start.
func (s *Server) dequeue() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.queue.pop()
	if j == nil {
		return nil
	}
	j.state = StateRunning
	s.running++
	if err := s.journal.append(journalRecord{Op: "start", ID: j.ID}); err != nil {
		// The job still runs; a missing start record only means a
		// restart would re-queue it, which is safe.
		s.opts.Logf("serve: %v", err)
	}
	return j
}

// execute runs one dispatched job to its terminal state. The result
// store wraps the backend call: a hit (raced-in local result or one
// computed by another process sharing the cache dir) completes the job
// without executing, reported on the stream as a cache hit; a miss
// elects this process to compute via the store's cross-process lock and
// stores the result for every future tenant.
//
// A job submitted with a deadline carries one budget from submit time:
// whatever queueing already consumed is gone, and the remainder bounds
// the backend call through its context (the dist coordinator decrements
// it further across retries and forwards it to workers).
func (s *Server) execute(j *Job) {
	started := time.Now()
	ctx := context.Background()
	if j.Spec.DeadlineSec > 0 {
		budget := time.Duration(j.Spec.DeadlineSec * float64(time.Second))
		remaining := budget - started.Sub(j.submitted)
		if remaining <= 0 {
			s.failDeadline(j, fmt.Sprintf("deadline exceeded before dispatch (%.1fs budget spent queued)", j.Spec.DeadlineSec))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, remaining)
		defer cancel()
	}
	obs := &jobObserver{s: s, j: j}
	st, cached, err := s.opts.Store.GetOrCompute(j.Request.Key(), func() (*uarch.Stats, error) {
		s.mu.Lock()
		s.dispatched++
		s.mu.Unlock()
		return s.opts.Backend.Execute(ctx, j.Request, obs)
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.finished = time.Now()
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("deadline exceeded (%.1fs budget): %w", j.Spec.DeadlineSec, err)
			s.deadlineExceeded++
		}
		j.state = StateFailed
		j.errMsg = err.Error()
		s.failed++
		if jerr := s.journal.append(journalRecord{Op: "fail", ID: j.ID, Error: j.errMsg}); jerr != nil {
			s.opts.Logf("serve: %v", jerr)
		}
		j.events.publish(s.eventLocked(j, "error", StateFailed, j.errMsg))
		s.opts.Logf("serve: job %s failed: %v", j.ID, err)
		return
	}
	j.state = StateDone
	j.cached = cached
	j.result = st
	s.done++
	if cached {
		s.storeHits++
		hit := s.eventLocked(j, "hit", "", "")
		hit.Source = "cache"
		j.events.publish(hit)
	} else {
		dur := j.finished.Sub(started).Seconds()
		if s.ewmaJobSec <= 0 {
			s.ewmaJobSec = dur
		} else {
			s.ewmaJobSec = (1-ewmaAlpha)*s.ewmaJobSec + ewmaAlpha*dur
		}
	}
	data, merr := json.Marshal(st)
	if merr != nil {
		s.opts.Logf("serve: encoding stats for journal: %v", merr)
	} else if jerr := s.journal.append(journalRecord{Op: "done", ID: j.ID, Cached: cached, Stats: data}); jerr != nil {
		s.opts.Logf("serve: %v", jerr)
	}
	j.events.publish(s.eventLocked(j, "done", StateDone, ""))
}

// failDeadline terminates a dequeued job whose budget ran out before
// the backend was ever called — queueing alone consumed the deadline.
func (s *Server) failDeadline(j *Job, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.deadlineExceeded++
	s.failed++
	j.state = StateFailed
	j.errMsg = msg
	j.finished = time.Now()
	if jerr := s.journal.append(journalRecord{Op: "fail", ID: j.ID, Error: j.errMsg}); jerr != nil {
		s.opts.Logf("serve: %v", jerr)
	}
	j.events.publish(s.eventLocked(j, "error", StateFailed, j.errMsg))
	s.opts.Logf("serve: job %s failed: %s", j.ID, msg)
}

// jobObserver forwards backend lifecycle events onto the job's stream.
// The dist coordinator calls the *From variants with the executing
// worker's address, which lands in the event's Source field — a
// streaming client sees which machine ran its job.
type jobObserver struct {
	s *Server
	j *Job
}

func (o *jobObserver) publish(kind, source string) {
	o.s.mu.Lock()
	e := o.s.eventLocked(o.j, kind, "", "")
	o.s.mu.Unlock()
	e.Source = source
	o.j.events.publish(e)
}

// RunQueued is ignored: serve emits its own queued event at submit.
func (o *jobObserver) RunQueued(bench, config string, insts uint64) {}

func (o *jobObserver) RunStarted(bench, config string, insts uint64) {
	o.publish("start", "")
}

func (o *jobObserver) RunFinished(bench, config string, insts uint64) {
	o.publish("finish", "")
}

func (o *jobObserver) RunStartedFrom(source, bench, config string, insts uint64) {
	o.publish("start", source)
}

func (o *jobObserver) RunFinishedFrom(source, bench, config string, insts uint64) {
	o.publish("finish", source)
}

// Cancel cancels a queued job. Running jobs are not interruptible (a
// dispatched simulation completes and lands in the store; canceling it
// would waste the work), and terminal jobs are already over — both
// return ErrNotCancelable.
func (s *Server) Cancel(tenant, id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.Tenant != tenant {
		return ErrNoJob
	}
	if j.state != StateQueued {
		return ErrNotCancelable
	}
	if !s.queue.remove(j) {
		return ErrNotCancelable
	}
	j.state = StateCanceled
	j.finished = time.Now()
	s.canceled++
	if err := s.journal.append(journalRecord{Op: "cancel", ID: j.ID}); err != nil {
		s.opts.Logf("serve: %v", err)
	}
	j.events.publish(s.eventLocked(j, "canceled", StateCanceled, ""))
	return nil
}

// Sentinel errors the API layer maps to HTTP statuses.
var (
	ErrNoJob         = fmt.Errorf("no such job")
	ErrNotCancelable = fmt.Errorf("job is not queued")
)

// StatsView is the /v1/stats payload: queue state, lifetime counters,
// fleet telemetry and the admission signal — everything an autoscaler
// or load balancer needs.
type StatsView struct {
	Queued           int            `json:"queued"`
	Running          int            `json:"running"`
	Done             int            `json:"done"`
	Failed           int            `json:"failed"`
	Canceled         int            `json:"canceled"`
	StoreHits        uint64         `json:"store_hits"`
	Dispatched       uint64         `json:"dispatched"`
	DeadlineExceeded int            `json:"deadline_exceeded,omitempty"`
	QueuedByClass    map[string]int `json:"queued_by_class,omitempty"`
	AvgJobSec        float64        `json:"avg_job_sec,omitempty"`
	MaxQueue         int            `json:"max_queue"`
	TenantQuota      int            `json:"tenant_quota"`
	Workers          int            `json:"workers"`
	FleetWorkers     int            `json:"fleet_workers,omitempty"`
	FleetRunning     int64          `json:"fleet_running,omitempty"`
	Saturated        bool           `json:"saturated"`
	// Shedding lists the priority classes admission is currently
	// refusing under brownout; Shed counts lifetime brownout rejections
	// per class.
	Shedding      []string          `json:"shedding,omitempty"`
	Shed          map[string]uint64 `json:"shed,omitempty"`
	RetryAfterSec float64           `json:"retry_after_sec,omitempty"`
	UptimeSec     float64           `json:"uptime_sec"`
}

// Stats snapshots the service for /v1/stats.
func (s *Server) Stats() StatsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := StatsView{
		Queued:           s.queue.depth(),
		Running:          s.running,
		Done:             s.done,
		Failed:           s.failed,
		Canceled:         s.canceled,
		StoreHits:        s.storeHits,
		Dispatched:       s.dispatched,
		DeadlineExceeded: s.deadlineExceeded,
		AvgJobSec:        s.ewmaJobSec,
		MaxQueue:         s.opts.MaxQueue,
		TenantQuota:      s.opts.TenantQuota,
		Workers:          s.opts.Workers,
		UptimeSec:        time.Since(s.start).Seconds(),
	}
	byClass := map[string]int{}
	for p := 0; p < numPriorities; p++ {
		n := 0
		for _, fifo := range s.queue.classes[p].fifos {
			n += len(fifo)
		}
		if n > 0 {
			byClass[Priority(p).String()] = n
		}
	}
	if len(byClass) > 0 {
		v.QueuedByClass = byClass
	}
	if s.opts.FleetStats != nil {
		v.FleetWorkers, v.FleetRunning = s.opts.FleetStats()
	}
	v.Saturated = s.queue.depth() >= s.opts.MaxQueue || s.fleetSaturatedLocked() && s.queue.depth() >= s.opts.MaxQueue/4
	if v.Saturated {
		v.RetryAfterSec = s.retryAfterLocked(s.queue.depth()).Seconds()
	}
	floor := s.shedFloorLocked()
	for p := Background; p < floor; p++ {
		v.Shedding = append(v.Shedding, p.String())
	}
	shed := map[string]uint64{}
	for p := 0; p < numPriorities; p++ {
		if s.shed[p] > 0 {
			shed[Priority(p).String()] = s.shed[p]
		}
	}
	if len(shed) > 0 {
		v.Shed = shed
	}
	return v
}

// Close stops the dispatch pool and closes the journal. In-flight jobs
// finish their current simulation first (their terminal records land in
// the journal); queued jobs stay queued and resume on the next New with
// the same Dir.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.stop:
		s.mu.Unlock()
		return nil
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.close()
}
