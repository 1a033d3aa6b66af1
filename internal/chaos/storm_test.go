// The fault storm is the chaos harness's whole-stack acceptance test
// (an external test package, so it can drive internal/dist without an
// import cycle): a real two-worker sweepd fleet behind a seeded faulty
// transport must still produce sweep results byte-identical to a serial
// in-process run, with exactly-once observer accounting and bounded
// completion time. scripts/chaos-smoke.sh runs exactly these tests in
// CI.
package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"halfprice/internal/chaos"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/store"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// stormPlan is the smoke storm: every HTTP fault class at a rate high
// enough that a ~50-request sweep sees each one several times. The seed
// is part of the contract — change it and the whole schedule moves.
func stormPlan() chaos.Plan {
	return chaos.Plan{
		Seed: 1107,
		HTTP: chaos.HTTPFaults{
			DropProb:     0.20,
			DelayProb:    0.20,
			MaxDelay:     5 * time.Millisecond,
			Error5xxProb: 0.15,
			CutProb:      0.10,
		},
	}
}

// stormCoordinator builds a coordinator whose every probe and dispatch
// crosses the injector's faulty transport. Its breakers tolerate three
// failures and re-admit after 10ms, so a storm's faults do not send
// most runs to the local fallback.
func stormCoordinator(t *testing.T, in *chaos.Injector, addrs []string) *dist.Coordinator {
	t.Helper()
	return dist.NewCoordinator(addrs, dist.Options{
		Timeout:          10 * time.Second,
		HealthInterval:   time.Hour, // no background churn: fault indices stay per-request
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Millisecond,
		Transport:        in.Transport(nil),
		Logf:             t.Logf,
	})
}

type stormObserver struct {
	queued, started, finished atomic.Int64
}

func (o *stormObserver) RunQueued(string, string, uint64)   { o.queued.Add(1) }
func (o *stormObserver) RunStarted(string, string, uint64)  { o.started.Add(1) }
func (o *stormObserver) RunFinished(string, string, uint64) { o.finished.Add(1) }

// TestChaosStormSingleRequests drives one request per benchmark through
// the storm and checks each result against local execution: no fault
// mode may corrupt a result or break exactly-once observer events.
func TestChaosStormSingleRequests(t *testing.T) {
	sa, sb := dist.NewServer(dist.ServerOptions{}), dist.NewServer(dist.ServerOptions{})
	wa := httptest.NewServer(sa.Handler())
	defer wa.Close()
	wb := httptest.NewServer(sb.Handler())
	defer wb.Close()

	in := stormPlan().MustCompile()
	coord := stormCoordinator(t, in, []string{wa.URL, wb.URL})
	defer coord.Close()

	obs := &stormObserver{}
	t0 := time.Now()
	for _, bench := range trace.BenchmarkNames {
		req := experiments.Request{Bench: bench, Config: uarch.Config4Wide(), Budget: 3000}
		got, err := coord.Execute(context.Background(), req, obs)
		if err != nil {
			t.Fatalf("%s: Execute under storm: %v", bench, err)
		}
		want, err := experiments.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("%s: storm result differs from local execution", bench)
		}
	}
	if el := time.Since(t0); el > 60*time.Second {
		t.Fatalf("storm took %s; completion time must stay bounded under faults", el)
	}
	n := int64(len(trace.BenchmarkNames))
	if s, f := obs.started.Load(), obs.finished.Load(); s != n || f != n {
		t.Fatalf("observer saw %d starts / %d finishes for %d runs; retries and hedges must stay exactly-once", s, f, n)
	}
	if len(in.Faults()) == 0 {
		t.Fatal("storm injected no faults; the scenario is vacuous")
	}
	// Faults can send runs to the local fallback, so the fleet's share
	// is logged, not asserted.
	t.Logf("storm injected %d faults across %d requests; the fleet served %d runs",
		len(in.Faults()), n, sa.Health().Done+sb.Health().Done)
}

// TestChaosStormSweep is the sweep-level storm: the dist package's
// equivalence sweep (three benchmarks through Table 2, Figure 6 and
// Figure 16) runs through a faulted fleet at parallelism 8 and must
// render byte-identical to the serial in-process sweep, with every run
// accounted for exactly once.
func TestChaosStormSweep(t *testing.T) {
	sweep := func(backend experiments.Backend, parallel int, obs experiments.Observer) ([]byte, *experiments.Runner) {
		r := experiments.NewRunner(experiments.Options{
			Insts:      5000,
			Benchmarks: []string{"gzip", "mcf", "crafty"},
			Parallel:   parallel,
			Backend:    backend,
			Observer:   obs,
		})
		results := []*experiments.Result{r.Table2BaseIPC(), r.Figure6WakeupSlack(), r.Figure16Combined()}
		data, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		return data, r
	}

	sa, sb := dist.NewServer(dist.ServerOptions{}), dist.NewServer(dist.ServerOptions{})
	wa := httptest.NewServer(sa.Handler())
	defer wa.Close()
	wb := httptest.NewServer(sb.Handler())
	defer wb.Close()

	in := stormPlan().MustCompile()
	coord := stormCoordinator(t, in, []string{wa.URL, wb.URL})
	defer coord.Close()

	serial, _ := sweep(nil, 1, nil)
	obs := &stormObserver{}
	t0 := time.Now()
	stormed, r := sweep(coord, 8, obs)
	if el := time.Since(t0); el > 120*time.Second {
		t.Fatalf("storm sweep took %s; completion time must stay bounded under faults", el)
	}
	if !bytes.Equal(serial, stormed) {
		t.Fatal("storm sweep output differs from the serial in-process sweep")
	}
	sims := int64(r.Sims())
	if q, s, f := obs.queued.Load(), obs.started.Load(), obs.finished.Load(); q != sims || s != sims || f != sims {
		t.Fatalf("observer saw queued/started/finished = %d/%d/%d for %d runs; no run may be lost or duplicated", q, s, f, sims)
	}
	if len(in.Faults()) == 0 {
		t.Fatal("storm injected no faults; the scenario is vacuous")
	}
	t.Logf("storm sweep: %d sims, %d injected faults, the fleet served %d runs, schedule digest %s",
		sims, len(in.Faults()), sa.Health().Done+sb.Health().Done, stormPlan().ScheduleDigest(8, "fleet"))
}

// TestChaosStormPartitionSlowDisk covers the remaining fault classes
// in one scenario: worker A partitioned at the start, and the result
// store on a disk with write errors, short writes, read errors and slow
// fsync. Results must still match local execution, and store failures
// must degrade to warnings, never corrupt or fail a run.
func TestChaosStormPartitionSlowDisk(t *testing.T) {
	wa := httptest.NewServer(dist.NewServer(dist.ServerOptions{}).Handler())
	defer wa.Close()
	wb := httptest.NewServer(dist.NewServer(dist.ServerOptions{}).Handler())
	defer wb.Close()

	plan := chaos.Plan{
		Seed: 2203,
		FS: chaos.FSFaults{
			WriteErrProb:   0.30,
			ShortWriteProb: 0.20,
			ReadErrProb:    0.20,
			SlowSyncProb:   0.50,
			SyncDelay:      2 * time.Millisecond,
		},
		Partitions: []chaos.Partition{
			{Target: strings.TrimPrefix(wa.URL, "http://"), After: 0, For: 300 * time.Millisecond},
		},
	}
	in := plan.MustCompile()
	st, err := store.Open(t.TempDir(), store.Options{
		Fingerprint: "storm",
		FS:          in.FS(chaos.OS{}),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	coord := stormCoordinator(t, in, []string{wa.URL, wb.URL})
	defer coord.Close()

	// Two passes over the same requests, each wrapped in the store the
	// way cmd/halfprice wraps its backend: the first populates the store
	// through the faulty disk (failed locks and Puts degrade to
	// warnings), the second is served from whatever survived — hits and
	// recomputes must both match local execution bit for bit.
	for pass := 0; pass < 2; pass++ {
		for _, bench := range []string{"gzip", "mcf", "crafty", "vpr"} {
			req := experiments.Request{Bench: bench, Config: uarch.Config4Wide(), Budget: 3000}
			got, _, err := st.GetOrCompute(req.Key(), func() (*uarch.Stats, error) {
				return coord.Execute(context.Background(), req, nil)
			})
			if err != nil {
				t.Fatalf("pass %d %s: Execute under partition/slow disk: %v", pass, bench, err)
			}
			want, err := experiments.Execute(req)
			if err != nil {
				t.Fatal(err)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				t.Fatalf("pass %d %s: result differs from local execution", pass, bench)
			}
		}
	}
	partitioned := false
	for _, f := range in.Faults() {
		if f.Op == "partition" {
			partitioned = true
		}
	}
	if !partitioned {
		t.Fatal("partition window never fired; the scenario is vacuous")
	}
}

// TestChaosStormScheduleStable pins the reproducibility witness the
// smoke script logs: the storm plan's schedule digest is a constant.
// If this fails, the fault schedule moved — every recorded chaos run's
// seed now means something else, so treat it as a breaking change.
func TestChaosStormScheduleStable(t *testing.T) {
	a := stormPlan().ScheduleDigest(64, "worker-a", "worker-b")
	b := stormPlan().ScheduleDigest(64, "worker-a", "worker-b")
	if a != b {
		t.Fatalf("schedule digest not stable across computations: %s vs %s", a, b)
	}
	other := stormPlan()
	other.Seed++
	if c := other.ScheduleDigest(64, "worker-a", "worker-b"); c == a {
		t.Fatal("different seeds produced the same schedule digest")
	}
}
