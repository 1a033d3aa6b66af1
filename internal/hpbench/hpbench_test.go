package hpbench

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/sample"
	"halfprice/internal/store"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// timeLimit is how long one tiny workload run may take.
var timeLimit = 5 * time.Second

// TestWorkloadsTiny runs every workload at the test scale, untraced and
// traced: each must finish quickly with no failed operation, report
// every metric of its mode, and digest the same Stats either way.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			digests := map[bool]string{}
			for _, traced := range []bool{false, true} {
				t0 := time.Now()
				res, err := Run(Config{Workload: w.Name, Seed: 7, Trace: traced, Dir: t.TempDir(), sizes: testSizes()})
				if err != nil {
					t.Fatal(err)
				}
				if d := time.Since(t0); d > timeLimit {
					t.Errorf("traced=%v took %v, want under %v", traced, d, timeLimit)
				}
				if !res.Correct() || res.Attempted == 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d, problems %v", traced, res.Attempted, res.Failed, res.Problems)
				}
				catalogue := EndToEnd
				if traced {
					catalogue = PerLayer
				}
				for _, m := range catalogue {
					v, ok := res.Metrics[m.Name]
					if !ok || (!traced && !(v > 0)) {
						t.Errorf("traced=%v: metric %s = %v, present %v", traced, m.Name, v, ok)
					}
				}
				if len(res.Metrics) != len(catalogue) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(catalogue))
				}
				digests[traced] = res.StatsSHA256
			}
			if digests[false] == "" || digests[false] != digests[true] {
				t.Errorf("stats digest untraced %q, traced %q", digests[false], digests[true])
			}
		})
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if _, err := Run(Config{Workload: "nope", Seed: 1, Dir: t.TempDir(), sizes: testSizes()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// tracingEnv is an env whose tracer records everything.
func tracingEnv() *env {
	e := &env{tr: NewTracer(), res: &Result{Metrics: map[string]float64{}}}
	e.tr.SetOn(true)
	return e
}

func TestStreamWrapperPreservesStats(t *testing.T) {
	p, _ := trace.ProfileByName("mcf")
	cfg := uarch.Config8Wide()
	want := uarch.New(cfg, trace.NewSynthetic(p, 20_000)).Run()
	e := tracingEnv()
	got := uarch.New(cfg, e.sampled(trace.NewSynthetic(p, 20_000))).Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sampled Stream.Next timing changed the Stats")
	}
	if got := e.tracedSim(cfg, trace.NewSynthetic(p, 20_000), 0, "mcf"); !reflect.DeepEqual(got, want) {
		t.Fatal("traced simulation changed the Stats")
	}
}

func TestTracedBackendPreservesStats(t *testing.T) {
	spec := sample.DefaultSpec()
	reqs := []experiments.Request{
		{Bench: "gzip", Config: uarch.Config4Wide(), Budget: 20_000},
		{Bench: "vpr", Config: uarch.Config8Wide(), Budget: 40_000, Sample: &spec},
		// Too short to sample: falls back to the full run.
		{Bench: "vpr", Config: uarch.Config4Wide(), Budget: 5_000, Sample: &spec},
	}
	e := tracingEnv()
	for _, req := range reqs {
		want, err := experiments.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedBackend{e}.Execute(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s sampled=%v: traced backend Stats differ from experiments.Execute", req.Bench, req.Sample != nil)
		}
	}
	if e.sim.represented.Load() == 0 || len(e.tr.Spans()) == 0 {
		t.Error("traced backend recorded no sampling counters or spans")
	}
}

func TestTimedFSPreservesStats(t *testing.T) {
	p, _ := trace.ProfileByName("gzip")
	want := uarch.New(uarch.Config4Wide(), trace.NewSynthetic(p, 10_000)).Run()
	e := tracingEnv()
	fs := newTimedFS(e.tr, "store")
	st, err := store.Open(t.TempDir(), store.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("k")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("stats did not round-trip through the timed FS")
	}
	names := summarize(e.tr.Spans()).count
	for _, op := range []string{"store.write", "store.fsync", "store.rename", "store.read"} {
		if names[op] == 0 {
			t.Errorf("no %s span", op)
		}
	}
	if fs.ops.Load() == 0 {
		t.Error("timed FS counted no operations")
	}
}

func TestTimedTransportAndHandlerPreserveStats(t *testing.T) {
	e := tracingEnv()
	w := dist.NewServer(dist.ServerOptions{Parallel: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: timedHandler(w.Handler(), e.tr)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	tt := &timedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: e.tr}
	coord := dist.NewCoordinator([]string{ln.Addr().String()}, dist.Options{Transport: tt})
	defer coord.Close()

	req := experiments.Request{Bench: "crafty", Config: uarch.Config4Wide(), Budget: 10_000}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Stats through the timed transport and handler differ from experiments.Execute")
	}
	names := summarize(e.tr.Spans()).count
	if names["dist.rpc"] != 1 || names["dist.worker"] != 1 || tt.rpcs.Load() != 1 {
		t.Errorf("spans %v, rpcs %d; want one dist.rpc and one dist.worker", names, tt.rpcs.Load())
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "experiments.exec", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..60, one more pokes out of
		// the parent and is clipped to 80..100: 70ms covered.
		{ID: 2, Parent: 1, Name: "uarch.run", Start: 10 * ms, End: 40 * ms, Untimed: 5 * ms},
		{ID: 3, Parent: 1, Name: "uarch.run", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "store.write", Start: 80 * ms, End: 120 * ms},
		{ID: 5, Parent: 4, Name: "store.fsync", Start: 90 * ms, End: 100 * ms},
	}
	got := selfTimes(spans, "trace")
	want := map[string]time.Duration{
		"experiments": 30 * ms,
		"uarch":       25*ms + 30*ms,
		"trace":       5 * ms,
		"store":       30*ms + 10*ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: Tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		v, p    float64
		comment string
	}{
		{1000, 950, 95, "enough samples: p95"},
		{100, 90, 90, "p95 would leave 5 beyond: p90 leaves 10"},
		{40, 30, 75, "p75 is the highest with 10 beyond"},
		{5, 3, 60, "too few for any tail: upper median"},
	} {
		v, p, n := tail(seq(c.n), 95)
		if v != c.v || p != c.p || n != c.n {
			t.Errorf("n=%d (%s): got v=%v p=%v n=%d, want v=%v p=%v", c.n, c.comment, v, p, n, c.v, c.p)
		}
	}
	if v, p, n := tail(nil, 95); v != 0 || p != 0 || n != 0 {
		t.Errorf("empty: %v %v %d", v, p, n)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.SetOn(true)
	root := tr.Start("experiments.exec", 0, "gzip 4w")
	child := tr.Start("uarch.run", root.ID(), "gzip 4w")
	child.EndUntimed(time.Microsecond)
	root.End()
	tr.SetOn(false)
	tr.Start("ignored.off", 0, "").End()

	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(f, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int      `json:"pid"`
			Tid  uint64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2 (spans recorded while off must be dropped)", len(got.TraceEvents))
	}
	for _, ev := range got.TraceEvents {
		if ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil || *ev.Dur < 0 || ev.Pid != 1 {
			t.Errorf("malformed complete event %+v", ev)
		}
		if ev.Tid != root.ID() {
			t.Errorf("%s on track %d, want its root's %d", ev.Name, ev.Tid, root.ID())
		}
	}
	if got.TraceEvents[0].Cat != "uarch" || got.TraceEvents[1].Cat != "experiments" {
		t.Errorf("categories %q, %q; want the layer of each span", got.TraceEvents[0].Cat, got.TraceEvents[1].Cat)
	}
}

func TestDeriveSeed(t *testing.T) {
	a, b := deriveSeed(1, "core/gzip"), deriveSeed(1, "core/mcf")
	if a == 0 || b == 0 || a == b || a != deriveSeed(1, "core/gzip") || a == deriveSeed(2, "core/gzip") {
		t.Fatalf("derived seeds %d, %d are not distinct, stable and non-zero", a, b)
	}
}
