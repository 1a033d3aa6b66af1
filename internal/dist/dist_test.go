package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/progress"
	"halfprice/internal/sample"
	"halfprice/internal/uarch"
)

// startWorker serves a real worker over httptest and returns it with its
// server handle (for execution counters).
func startWorker(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(ServerOptions{Parallel: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// quietOptions returns coordinator options that log into the test output
// instead of stderr.
func quietOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		Timeout:        30 * time.Second,
		Backoff:        time.Millisecond,
		HealthInterval: time.Hour, // probes only at construction; tests drive eviction explicitly
		Logf:           t.Logf,
	}
}

// sweepJSON renders the ISSUE's equivalence sweep — three benchmarks
// across Table 2 (both widths), Figure 6 (the wakeup-slack histogram,
// which exercises Histogram's JSON round trip) and Figure 16 (the
// combined half-price machine) — through the given backend.
func sweepJSON(t *testing.T, backend experiments.Backend, parallel int, obs experiments.Observer) ([]byte, *experiments.Runner) {
	t.Helper()
	return runSweepJSON(t, experiments.Options{
		Insts:      5000,
		Benchmarks: []string{"gzip", "mcf", "crafty"},
		Parallel:   parallel,
		Backend:    backend,
		Observer:   obs,
	})
}

// runSweepJSON renders sweepJSON's artifacts under the given options.
func runSweepJSON(t *testing.T, opts experiments.Options) ([]byte, *experiments.Runner) {
	t.Helper()
	r := experiments.NewRunner(opts)
	results := []*experiments.Result{r.Table2BaseIPC(), r.Figure6WakeupSlack(), r.Figure16Combined()}
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return data, r
}

// TestLocalDistributedEquivalence is the tentpole acceptance test: a
// sweep run through the coordinator against two local sweepd workers
// produces Result JSON bit-identical to the serial in-process run.
func TestLocalDistributedEquivalence(t *testing.T) {
	srvA, tsA := startWorker(t)
	srvB, tsB := startWorker(t)
	coord := NewCoordinator([]string{tsA.URL, tsB.URL}, quietOptions(t))
	defer coord.Close()

	serial, _ := sweepJSON(t, nil, 1, nil)
	distributed, r := sweepJSON(t, coord, 8, nil)
	if !bytes.Equal(serial, distributed) {
		t.Fatalf("distributed sweep differs from serial\n--- serial ---\n%s\n--- distributed ---\n%s", serial, distributed)
	}

	// Every simulation ran remotely (both workers healthy throughout),
	// sharded across the fleet.
	remote := srvA.Health().Done + srvB.Health().Done
	if remote != r.Sims() {
		t.Fatalf("workers executed %d runs, coordinator counted %d", remote, r.Sims())
	}
	if srvA.Health().Done == 0 || srvB.Health().Done == 0 {
		t.Errorf("sharding left a worker idle: A=%d B=%d", srvA.Health().Done, srvB.Health().Done)
	}

	// Sampled: the local sweep shares each benchmark's window plan
	// through its Runner's memo. The memo reference does not cross the
	// wire, so each worker plans for itself, and both must agree byte for
	// byte. 10k instructions make five 2000-instruction intervals, enough
	// to sample rather than fall back to a full run.
	spec := sample.DefaultSpec()
	sampled := func(backend experiments.Backend, parallel int) ([]byte, *experiments.Runner) {
		return runSweepJSON(t, experiments.Options{
			Insts:      10000,
			Benchmarks: []string{"gzip", "mcf", "crafty"},
			Parallel:   parallel,
			Backend:    backend,
			Sample:     &spec,
		})
	}
	serial, _ = sampled(nil, 1)
	distributed, rs := sampled(coord, 8)
	if !bytes.Equal(serial, distributed) {
		t.Fatalf("distributed sampled sweep differs from serial\n--- serial ---\n%s\n--- distributed ---\n%s", serial, distributed)
	}
	if remote := srvA.Health().Done + srvB.Health().Done; remote != r.Sims()+rs.Sims() {
		t.Fatalf("workers executed %d runs, coordinator counted %d", remote, r.Sims()+rs.Sims())
	}
}

// TestWorkerMemoSingleflight pins the worker-side half of fleet-wide
// dedup: repeated requests for one simulation execute it once.
func TestWorkerMemoSingleflight(t *testing.T) {
	srv, ts := startWorker(t)
	coord := NewCoordinator([]string{ts.URL}, quietOptions(t))
	defer coord.Close()

	req := experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := coord.Execute(context.Background(), req, nil); err != nil {
				t.Errorf("Execute: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := coord.Execute(context.Background(), req, nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	h := srv.Health()
	if h.Done != 5 {
		t.Fatalf("worker completed %d requests, want 5", h.Done)
	}
	if h.Sims != 1 {
		t.Fatalf("worker executed %d simulations for one key, want 1", h.Sims)
	}
}

// TestExecuteWaitsForWorkerHandler: Execute returns only once the
// worker's handler chain has returned, so middleware that finishes
// after the result line (a timing span, say) is done by then.
func TestExecuteWaitsForWorkerHandler(t *testing.T) {
	h := NewServer(ServerOptions{Parallel: 1}).Handler()
	var returned atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == RunPath {
			time.Sleep(50 * time.Millisecond)
			returned.Store(true)
		}
	}))
	t.Cleanup(ts.Close)
	coord := NewCoordinator([]string{ts.URL}, quietOptions(t))
	defer coord.Close()

	req := experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000}
	if _, err := coord.Execute(context.Background(), req, nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !returned.Load() {
		t.Fatal("Execute returned before the worker's handler did")
	}
}

// TestNoWorkersFallsBackLocal: with nothing listening on any worker
// address the coordinator must warn once and execute locally, not fail.
func TestNoWorkersFallsBackLocal(t *testing.T) {
	var mu sync.Mutex
	var logbuf strings.Builder
	opts := quietOptions(t)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logbuf, format+"\n", args...)
	}
	coord := NewCoordinator([]string{"127.0.0.1:1", "127.0.0.1:2"}, opts)
	defer coord.Close()

	req := experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("Execute with unreachable fleet: %v", err)
	}
	if statsJSON(t, got) != statsJSON(t, want) {
		t.Fatal("local-fallback stats differ from direct local execution")
	}
	mu.Lock()
	logged := logbuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "falling back to local execution") {
		t.Fatalf("missing fallback warning; log:\n%s", logged)
	}
}

// TestDrainEvictsWorker: draining flips /healthz to 503 and rejects new
// /run requests, so coordinators stop dispatching to the worker.
func TestDrainEvictsWorker(t *testing.T) {
	srv, ts := startWorker(t)

	resp, err := http.Post(ts.URL+DrainPath, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !srv.Health().Draining {
		t.Fatal("server not draining after /drain")
	}

	hz, err := http.Get(ts.URL + HealthzPath)
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining = %d, want 503", hz.StatusCode)
	}

	run, err := http.Post(ts.URL+RunPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	run.Body.Close()
	if run.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/run while draining = %d, want 503", run.StatusCode)
	}

	// A coordinator built over a draining worker sees it dead on the
	// initial probe and degrades to local execution.
	coord := NewCoordinator([]string{ts.URL}, quietOptions(t))
	defer coord.Close()
	if n := coord.HealthyWorkers(); n != 0 {
		t.Fatalf("draining worker still in dispatch (healthy=%d)", n)
	}
}

// TestMergedProgressEvents runs a distributed sweep with the standard
// progress tracker attached and checks the merged NDJSON stream: every
// line is well-formed, remote runs carry their worker's source tag, and
// the aggregate counters stay consistent — one merged view of a
// multi-worker sweep.
func TestMergedProgressEvents(t *testing.T) {
	_, tsA := startWorker(t)
	_, tsB := startWorker(t)
	coord := NewCoordinator([]string{tsA.URL, tsB.URL}, quietOptions(t))
	defer coord.Close()

	var ndjson bytes.Buffer
	tracker := progress.New(nil, &ndjson)
	// All 24 base runs (12 benchmarks x 2 widths): enough distinct
	// run keys that sharding deterministically reaches both workers.
	r := experiments.NewRunner(experiments.Options{
		Insts:    1000,
		Parallel: 8,
		Backend:  coord,
		Observer: tracker,
	})
	r.Warm(4, 8)
	tracker.Close()

	sources := map[string]bool{}
	var kinds []string
	sc := bufio.NewScanner(&ndjson)
	for sc.Scan() {
		var ev progress.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Event)
		if ev.Event == "start" || ev.Event == "finish" {
			sources[ev.Source] = true
			if ev.Source == "" {
				t.Errorf("remote run event missing source tag: %s", sc.Text())
			}
		}
		if ev.Done > ev.Queued || ev.Running < 0 {
			t.Errorf("inconsistent merged counters in %s", sc.Text())
		}
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != "summary" {
		t.Fatalf("stream must end with a summary event, got %v", kinds)
	}
	if len(sources) < 2 {
		t.Errorf("expected events from both workers, saw sources %v", sources)
	}
}

// testConfig returns the 4-wide base machine, as the Runner would
// request it.
func testConfig() uarch.Config { return uarch.Config4Wide() }

// statsJSON renders stats for bit-identical comparison (Stats embeds a
// *Histogram, so direct struct equality would compare pointers).
func statsJSON(t *testing.T, st *uarch.Stats) string {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
