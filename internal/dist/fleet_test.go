package dist

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/trace"
)

// startWorkerWith serves a real worker with explicit options over
// httptest.
func startWorkerWith(t *testing.T, opts ServerOptions) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// --- registry ---

func TestRegistryFileRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "workers")
	reg := NewRegistry(file)

	addrs, err := reg.Addrs()
	if err != nil || addrs != nil {
		t.Fatalf("missing registry file: got %v, %v; want empty fleet, nil error", addrs, err)
	}
	for _, a := range []string{"a:1", "b:2", "a:1"} { // re-registering is a no-op
		if err := reg.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	addrs, err = reg.Addrs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a:1", "b:2"}; fmt.Sprint(addrs) != fmt.Sprint(want) {
		t.Fatalf("Addrs = %v, want %v", addrs, want)
	}
	if err := reg.Deregister("a:1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Deregister("never-there:9"); err != nil {
		t.Fatal(err)
	}
	addrs, _ = reg.Addrs()
	if want := []string{"b:2"}; fmt.Sprint(addrs) != fmt.Sprint(want) {
		t.Fatalf("Addrs after deregister = %v, want %v", addrs, want)
	}
}

func TestRegistryParsing(t *testing.T) {
	file := filepath.Join(t.TempDir(), "workers")
	listing := "# fleet\n a:1 \n\nb:2 # rack 7\na:1\n"
	if err := os.WriteFile(file, []byte(listing), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs, err := NewRegistry(file).Addrs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a:1", "b:2"}; fmt.Sprint(addrs) != fmt.Sprint(want) {
		t.Fatalf("parsed %v, want %v (comments, blanks and duplicates dropped)", addrs, want)
	}
}

func TestRegistryEndpoint(t *testing.T) {
	ep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "a:1\nb:2")
	}))
	defer ep.Close()
	reg := NewRegistry(ep.URL)
	addrs, err := reg.Addrs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a:1", "b:2"}; fmt.Sprint(addrs) != fmt.Sprint(want) {
		t.Fatalf("endpoint Addrs = %v, want %v", addrs, want)
	}
	if err := reg.Register("c:3"); err == nil {
		t.Fatal("Register against an HTTP registry must fail: membership is owned by the endpoint")
	}
}

// TestRegistryChurn is the fleet-churn acceptance test: a worker
// joining mid-sweep through the registry picks up work, a deregistered
// worker is drained out of dispatch, and every result stays
// bit-identical to local execution throughout. A background goroutine
// hammers refresh() the whole time so membership changes race real
// dispatch (run under -race).
func TestRegistryChurn(t *testing.T) {
	regFile := filepath.Join(t.TempDir(), "workers")
	srvA, tsA := startWorker(t)
	if err := NewRegistry(regFile).Register(tsA.URL); err != nil {
		t.Fatal(err)
	}

	opts := quietOptions(t)
	opts.Registry = regFile
	coord := NewCoordinator(nil, opts)
	defer coord.Close()
	if n := coord.HealthyWorkers(); n != 1 {
		t.Fatalf("registry-only coordinator sees %d workers, want 1", n)
	}

	// Churn concurrently with everything below.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				coord.pool.refresh()
			}
		}
	}()
	defer churn.Wait()
	defer close(stop)

	check := func(req experiments.Request) {
		t.Helper()
		got, err := coord.Execute(context.Background(), req, nil)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		want, err := experiments.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if statsJSON(t, got) != statsJSON(t, want) {
			t.Fatalf("%s result differs from local execution under churn", req.Bench)
		}
	}

	check(experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000})
	if srvA.Health().Done != 1 {
		t.Fatalf("initial worker completed %d runs, want 1", srvA.Health().Done)
	}

	// A second worker joins mid-sweep via the registry.
	srvB, tsB := startWorker(t)
	if err := NewRegistry(regFile).Register(tsB.URL); err != nil {
		t.Fatal(err)
	}
	coord.pool.refresh()
	if n := coord.HealthyWorkers(); n != 2 {
		t.Fatalf("after join: %d healthy workers, want 2", n)
	}
	for _, b := range trace.BenchmarkNames {
		check(experiments.Request{Bench: b, Config: testConfig(), Budget: 2000})
	}
	if srvB.Health().Done == 0 {
		t.Fatal("worker that joined mid-sweep never picked up work")
	}

	// The first worker deregisters: drained out of dispatch.
	if err := NewRegistry(regFile).Deregister(tsA.URL); err != nil {
		t.Fatal(err)
	}
	coord.pool.refresh()
	if n := coord.HealthyWorkers(); n != 1 {
		t.Fatalf("after leave: %d healthy workers, want 1", n)
	}
	doneA := srvA.Health().Done
	for _, b := range trace.BenchmarkNames[:4] {
		check(experiments.Request{Bench: b, Config: testConfig(), Budget: 2500})
	}
	if got := srvA.Health().Done; got != doneA {
		t.Fatalf("deregistered worker still receiving work: done %d -> %d", doneA, got)
	}
}

// TestRegistrySyncNeverAppliesStaleListing pins that overlapping
// registry reconciliations apply listings in the order they read them:
// a listing read before a worker registered must never land after a
// newer one that added it, which would drop the worker again. Four
// goroutines reconcile in a loop while workers register one at a time;
// a reconciliation that starts after a registration must leave the new
// worker in the pool.
func TestRegistrySyncNeverAppliesStaleListing(t *testing.T) {
	reg := NewRegistry(filepath.Join(t.TempDir(), "workers"))
	p := &pool{registry: reg, logf: func(string, ...any) {}}

	stop := make(chan struct{})
	var syncers sync.WaitGroup
	for i := 0; i < 4; i++ {
		syncers.Add(1)
		go func() {
			defer syncers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					p.syncRegistry()
				}
			}
		}()
	}
	defer syncers.Wait()
	defer close(stop)

	for i := 0; i < 500; i++ {
		addr := fmt.Sprintf("w%d:1", i)
		if err := reg.Register(addr); err != nil {
			t.Fatal(err)
		}
		p.syncRegistry()
		found := false
		for _, w := range p.snapshot() {
			found = found || w.addr == addr
		}
		if !found {
			t.Fatalf("%s missing from the pool after a sync that read the registry after it registered", addr)
		}
	}
}

// --- auth + TLS ---

func TestAuthRejectsUnauthorized(t *testing.T) {
	srv, ts := startWorkerWith(t, ServerOptions{Parallel: 2, Token: "s3cret"})
	body, err := json.Marshal(experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}

	post := func(path, auth string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(RunPath, ""); code != http.StatusUnauthorized {
		t.Fatalf("/run without token = %d, want 401", code)
	}
	if code := post(RunPath, "Bearer wrong"); code != http.StatusUnauthorized {
		t.Fatalf("/run with wrong token = %d, want 401", code)
	}
	if code := post(DrainPath, ""); code != http.StatusUnauthorized {
		t.Fatalf("/drain without token = %d, want 401", code)
	}
	if srv.Health().Draining {
		t.Fatal("unauthorized /drain drained the worker")
	}
	if srv.Health().Sims != 0 {
		t.Fatal("unauthorized /run reached the simulator")
	}
	hz, err := http.Get(ts.URL + HealthzPath)
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz must stay open for probes, got %d", hz.StatusCode)
	}

	// A coordinator presenting the token works end to end.
	opts := quietOptions(t)
	opts.Token = "s3cret"
	coord := NewCoordinator([]string{ts.URL}, opts)
	defer coord.Close()
	req := experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000}
	got, err := coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, got) != statsJSON(t, want) {
		t.Fatal("authenticated remote result differs from local execution")
	}
	if srv.Health().Done != 1 {
		t.Fatalf("worker completed %d runs, want 1", srv.Health().Done)
	}
}

func TestTLSWorker(t *testing.T) {
	srv := NewServer(ServerOptions{Parallel: 2, Token: "s3cret"})
	ts := httptest.NewTLSServer(srv.Handler())
	defer ts.Close()

	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	opts := quietOptions(t)
	opts.TLS = &tls.Config{RootCAs: pool}
	opts.Token = "s3cret"
	coord := NewCoordinator([]string{ts.URL}, opts) // https:// URL
	defer coord.Close()
	if n := coord.HealthyWorkers(); n != 1 {
		t.Fatalf("TLS worker not probed healthy (healthy=%d)", n)
	}

	req := experiments.Request{Bench: "mcf", Config: testConfig(), Budget: 2000}
	got, err := coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("Execute over TLS: %v", err)
	}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, got) != statsJSON(t, want) {
		t.Fatal("TLS remote result differs from local execution")
	}
	if srv.Health().Done != 1 {
		t.Fatalf("worker completed %d runs over TLS, want 1", srv.Health().Done)
	}
}

// --- load-aware dispatch ---

func TestLoadAwarePick(t *testing.T) {
	p := &pool{
		breakerCooldown: time.Hour, // an opened breaker stays open for the test
		logf:            t.Logf,
	}
	ws := make([]*worker, 3)
	for i := range ws {
		ws[i] = p.newWorker(fmt.Sprintf("w%d:1", i))
		ws[i].br.success() // probed up: breaker closed
		p.workers = append(p.workers, ws[i])
	}

	// Balanced fleet: pure hash affinity.
	if got := p.pick(0, 0); got != ws[0] {
		t.Fatalf("balanced pick(0) = %s, want preferred w0", got.addr)
	}
	if got := p.pick(1, 0); got != ws[1] {
		t.Fatalf("balanced pick(1) = %s, want preferred w1", got.addr)
	}

	// Preferred worker within threshold of the median: affinity holds.
	ws[0].setLoad(loadThreshold) // median 0 + threshold, not above it
	if got := p.pick(0, 0); got != ws[0] {
		t.Fatalf("pick at-threshold = %s, want preferred w0 (affinity keeps the memo warm)", got.addr)
	}

	// Hot shard: preferred queue depth exceeds median+threshold, the
	// least loaded worker takes the run.
	ws[0].setLoad(loadThreshold + 7)
	ws[2].setLoad(1)
	if got := p.pick(0, 0); got != ws[1] {
		t.Fatalf("overloaded pick = %s, want least-loaded w1", got.addr)
	}
	// Other shards keep their own (unloaded) affinity.
	if got := p.pick(2, 0); got != ws[2] {
		t.Fatalf("pick(2) = %s, want preferred w2", got.addr)
	}

	// Load shedding never elects a worker behind an open breaker.
	ws[1].br.failure(time.Now())
	if got := p.pick(0, 0); got != ws[2] {
		t.Fatalf("pick with w1 down = %s, want w2", got.addr)
	}
}

// --- sweepd lifecycle fixes ---

// TestMemoBounded is the regression test for the unbounded memo leak: a
// daemon serving many distinct requests keeps at most MemoCap completed
// results, evicted oldest-first, while resident entries still dedup.
func TestMemoBounded(t *testing.T) {
	srv := NewServer(ServerOptions{Parallel: 2, MemoCap: 3})
	req := func(budget uint64) experiments.Request {
		return experiments.Request{Bench: "gzip", Config: testConfig(), Budget: budget}
	}
	const runs = 10
	for i := 0; i < runs; i++ {
		if _, err := srv.execute(req(1000 + uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.memo.Len(); got != 3 {
		t.Fatalf("memo holds %d entries after %d distinct runs, want cap 3", got, runs)
	}
	if got := srv.sims.Load(); got != runs {
		t.Fatalf("executed %d simulations, want %d", got, runs)
	}

	// A resident key joins the memo without re-simulating...
	if _, err := srv.execute(req(1000 + runs - 1)); err != nil {
		t.Fatal(err)
	}
	if got := srv.sims.Load(); got != runs {
		t.Fatalf("resident key re-simulated: sims %d, want %d", got, runs)
	}
	// ...an evicted one simulates again (and the map stays bounded).
	if _, err := srv.execute(req(1000)); err != nil {
		t.Fatal(err)
	}
	if got := srv.sims.Load(); got != runs+1 {
		t.Fatalf("evicted key served from a memo that should have shrunk: sims %d, want %d", got, runs+1)
	}
	if got := srv.memo.Len(); got != 3 {
		t.Fatalf("memo grew past its cap: %d", got)
	}
}

// TestSimulationPanicReachesDuplicates: a request whose simulation
// panics (an impossible remote config) fails with an error instead of
// downing the worker, and every concurrent and later duplicate gets
// that error from the memo without simulating again.
func TestSimulationPanicReachesDuplicates(t *testing.T) {
	srv := NewServer(ServerOptions{Parallel: 2})
	cfg := testConfig()
	cfg.Width = 0
	req := experiments.Request{Bench: "gzip", Config: cfg, Budget: 1000}
	errs := make([]error, 5)
	var wg sync.WaitGroup
	for i := range errs[:4] {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = srv.execute(req)
		}(i)
	}
	wg.Wait()
	_, errs[4] = srv.execute(req)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "simulation panic") {
			t.Fatalf("request %d: err %v, want the simulation panic as an error", i, err)
		}
	}
	if n := srv.sims.Load(); n != 1 {
		t.Fatalf("simulated %d times for one key, want 1", n)
	}
}

// TestAbandonedWhileQueued: a coordinator that times out and
// re-dispatches must not leave the worker camped on the semaphore — the
// handler returns, nothing simulates, and the slot math stays intact.
func TestAbandonedWhileQueued(t *testing.T) {
	srv := NewServer(ServerOptions{Parallel: 1})
	srv.sem <- struct{}{} // occupy the only slot

	body, err := json.Marshal(experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, RunPath, bytes.NewReader(body)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		srv.handleRun(httptest.NewRecorder(), req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the handler reach the semaphore
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still queued after the client abandoned the request")
	}
	<-srv.sem // release the manual hold; the abandoned handler must not have taken it

	if h := srv.Health(); h.Running != 0 || h.Sims != 0 {
		t.Fatalf("abandoned queued request leaked state: %+v", h)
	}

	// The slot is usable again end to end.
	rec := httptest.NewRecorder()
	srv.handleRun(rec, httptest.NewRequest(http.MethodPost, RunPath, bytes.NewReader(body)))
	if !strings.Contains(rec.Body.String(), `"result"`) {
		t.Fatalf("worker wedged after abandoned request; stream:\n%s", rec.Body.String())
	}
}

// brokenWriter fails every write, as a closed client connection does.
type brokenWriter struct{ h http.Header }

func (w *brokenWriter) Header() http.Header       { return w.h }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }
func (w *brokenWriter) WriteHeader(int)           {}

// TestBrokenStreamStopsHandler: once a write fails the handler must
// release its slot and stop — not simulate an entire run for a client
// that is gone.
func TestBrokenStreamStopsHandler(t *testing.T) {
	srv := NewServer(ServerOptions{Parallel: 1})
	body, err := json.Marshal(experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv.handleRun(&brokenWriter{h: http.Header{}}, httptest.NewRequest(http.MethodPost, RunPath, bytes.NewReader(body)))
	if h := srv.Health(); h.Running != 0 || h.Sims != 0 {
		t.Fatalf("handler simulated for a broken stream: %+v", h)
	}
	if len(srv.sem) != 0 {
		t.Fatal("broken stream leaked a semaphore slot")
	}
}

// TestTerminalEventCounters pins the counter-snapshot fix: the finish
// and result lines a worker streams must describe a state that includes
// the run they terminate (Running still counts it, Done counts it), so
// merged NDJSON is self-consistent.
func TestTerminalEventCounters(t *testing.T) {
	_, ts := startWorker(t)
	body, err := json.Marshal(experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+RunPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	terminal := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		var m Message
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("malformed line %q: %v", sc.Text(), err)
		}
		switch m.Kind() {
		case "start":
			if m.Running != 1 {
				t.Errorf("start line Running = %d, want 1", m.Running)
			}
		case "finish", "result":
			terminal++
			if m.Running != 1 || m.Done != 1 {
				t.Errorf("%s line Running/Done = %d/%d, want 1/1 (counters must include the run they describe)", m.Kind(), m.Running, m.Done)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal != 2 {
		t.Fatalf("saw %d terminal lines, want finish + result", terminal)
	}
}

// TestBackoffClamped guards sleepBackoff against shift overflow: for a
// large retry index the exponent must saturate at maxBackoff, never
// wrap negative or to zero.
func TestBackoffClamped(t *testing.T) {
	if got := backoffDelay(0); got != 100*time.Millisecond {
		t.Fatalf("backoffDelay(0) = %v, want 100ms", got)
	}
	if got := backoffDelay(3); got != 800*time.Millisecond {
		t.Fatalf("backoffDelay(3) = %v, want 800ms", got)
	}
	for _, n := range []int{20, 63, 64, 1 << 20} {
		if got := backoffDelay(n); got != maxBackoff {
			t.Fatalf("backoffDelay(%d) = %v, want clamp at %v", n, got, maxBackoff)
		}
	}
}
