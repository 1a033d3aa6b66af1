package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"halfprice/internal/sample"
	"halfprice/internal/uarch"
)

// Sampled and full requests must never alias in the result store: the
// Sample field is part of the canonical key, and full-run keys are
// byte-identical to pre-sampling builds (no "sample" key at all).
func TestRequestKeySeparatesSampled(t *testing.T) {
	full := Request{Bench: "gzip", Config: uarch.Config4Wide(), Budget: 1000000}
	spec := sample.DefaultSpec()
	sampled := full
	sampled.Sample = &spec

	fullKey, sampledKey := full.Key(), sampled.Key()
	if fullKey == sampledKey {
		t.Fatal("sampled request keys must differ from full-run keys")
	}
	if strings.Contains(fullKey, "sample") {
		t.Errorf("full-run key must not mention sampling (store compatibility): %s", fullKey)
	}
	if !strings.Contains(sampledKey, "sample") {
		t.Errorf("sampled key must carry the spec: %s", sampledKey)
	}
	// Different specs are different work.
	spec2 := spec
	spec2.Seed++
	sampled2 := full
	sampled2.Sample = &spec2
	if sampled2.Key() == sampledKey {
		t.Error("requests with different sample seeds must not share a key")
	}
}

// A sampled Execute must be bit-deterministic: same request, identical
// marshaled Stats — the property that makes sampled reports
// byte-identical across reruns and store results trustworthy.
func TestSampledExecuteDeterministic(t *testing.T) {
	spec := sample.Spec{IntervalInsts: 2000, WarmupInsts: 500, MaxPhases: 4, WindowsPerPhase: 2, Seed: 1}
	req := Request{Bench: "mcf", Config: uarch.Config4Wide(), Budget: 300000, Sample: &spec}
	a, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("sampled Stats differ across identical runs:\n%s\n%s", ja, jb)
	}
	if a.Sampled == nil {
		t.Fatal("sampled run must carry SampledMeta")
	}
	if a.Sampled.DetailedInsts >= req.Budget {
		t.Fatalf("detailed %d >= budget %d: not sampling", a.Sampled.DetailedInsts, req.Budget)
	}
}

// Sampled requests reject configs that fight the window plan over the
// warmup or budget, and propagate spec validation errors.
func TestSampledExecuteRejectsIllFormed(t *testing.T) {
	spec := sample.DefaultSpec()
	cfg := uarch.Config4Wide()
	cfg.WarmupInsts = 1000
	if _, err := Execute(Request{Bench: "gzip", Config: cfg, Budget: 500000, Sample: &spec}); err == nil {
		t.Error("config WarmupInsts under sampling must be rejected")
	}
	cfg = uarch.Config4Wide()
	cfg.MaxInsts = 100000
	if _, err := Execute(Request{Bench: "gzip", Config: cfg, Budget: 500000, Sample: &spec}); err == nil {
		t.Error("config MaxInsts under sampling must be rejected")
	}
	bad := spec
	bad.Seed = 0
	if _, err := Execute(Request{Bench: "gzip", Config: uarch.Config4Wide(), Budget: 500000, Sample: &bad}); err == nil {
		t.Error("invalid spec must surface as an error")
	}
}

// Streams too short to sample fall back to the full simulation and
// report it honestly: no SampledMeta on the result.
func TestSampledExecuteShortStreamFallsBack(t *testing.T) {
	spec := sample.Spec{IntervalInsts: 5000, WarmupInsts: 1000, MaxPhases: 4, WindowsPerPhase: 2, Seed: 1}
	req := Request{Bench: "gzip", Config: uarch.Config4Wide(), Budget: 12000, Sample: &spec}
	st, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sampled != nil {
		t.Fatal("a 2-interval stream must fall back to a full run (nil Sampled)")
	}
	full, err := Execute(Request{Bench: "gzip", Config: uarch.Config4Wide(), Budget: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() != full.IPC() {
		t.Fatalf("fallback IPC %.4f differs from full run %.4f", st.IPC(), full.IPC())
	}
}

// planConfigs are four machines, three window plans: the combined
// half-price machine differs from base only in the pipeline, while
// next-line prefetch and a smaller bimodal table change what the
// profiling pass sees. At 30k instructions the smaller table changes
// gzip's and mcf's plans, and prefetch changes gzip's.
var planConfigs = []func(*uarch.Config){
	nil,
	func(c *uarch.Config) { c.Wakeup, c.Regfile = uarch.WakeupSequential, uarch.RFSequential },
	func(c *uarch.Config) { c.Mem.DL1.NextLinePrefetch = true },
	func(c *uarch.Config) { c.Bpred.BimodalEntries = 64 },
}

// TestSharedPlanMatchesFreshPlan: a sampled sweep builds each window
// plan once and shares it between the machines whose memory and
// predictor configs match, and every shared-plan result equals a direct
// Execute, which plans for itself.
func TestSharedPlanMatchesFreshPlan(t *testing.T) {
	spec := sample.DefaultSpec()
	var reqs []Request
	for _, b := range []string{"gzip", "mcf"} {
		for _, m := range planConfigs {
			reqs = append(reqs, Request{Bench: b, Config: config(4, m), Budget: 30000, Sample: &spec})
		}
	}
	fresh := make([]*uarch.Stats, len(reqs))
	for i, req := range reqs {
		st, err := Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sampled == nil {
			t.Fatalf("%s %s fell back to a full run", req.Bench, req.Label())
		}
		fresh[i] = st
	}
	for _, parallel := range []int{1, 8} {
		r := NewRunner(Options{Insts: 30000, Benchmarks: []string{"gzip", "mcf"}, Parallel: parallel, Sample: &spec})
		var wg sync.WaitGroup
		got := make([]*uarch.Stats, len(reqs))
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req Request) {
				defer wg.Done()
				got[i] = r.Run(req.Bench, req.Config.Width, func(c *uarch.Config) { *c = req.Config })
			}(i, req)
		}
		wg.Wait()
		for i, req := range reqs {
			if !reflect.DeepEqual(got[i], fresh[i]) {
				t.Errorf("-j %d: %s %s with a shared plan differs from a fresh Execute", parallel, req.Bench, req.Label())
			}
		}
		if plans := r.plans.Len(); plans != 6 {
			t.Errorf("-j %d: %d plans, want one per benchmark and memory and predictor config, 6", parallel, plans)
		}
		shared := reqs[0]
		shared.plans = r.plans
		if shared.Key() != reqs[0].Key() {
			t.Fatalf("the plan memo leaked into the request key: %s", shared.Key())
		}
	}
}

// TestAllSharesOnePlanPerBenchmark pins the saving on the paper's whole
// evaluation: Runner.All varies no memory or predictor setting, so its
// 92 sampled simulations over four benchmarks build four plans.
func TestAllSharesOnePlanPerBenchmark(t *testing.T) {
	spec := sample.DefaultSpec()
	r := NewRunner(Options{Insts: 10000, Benchmarks: []string{"gzip", "mcf", "crafty", "vpr"}, Parallel: 2, Sample: &spec})
	r.All()
	if plans := r.plans.Len(); r.Sims() != 92 || plans != 4 {
		t.Fatalf("All ran %d simulations with %d plans, want 92 and 4", r.Sims(), plans)
	}
}
