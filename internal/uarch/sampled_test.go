package uarch

import (
	"reflect"
	"testing"

	"halfprice/internal/bpred"
	"halfprice/internal/isa"
	"halfprice/internal/mem"
	"halfprice/internal/trace"
)

// TestWarmerCountsConditionalMispredictsOnly pins the warmer's mispredict
// feature: the warmer runs fetch's branch-predictor sequence, but only a
// mispredicted conditional branch counts, not a mispredicted jump.
func TestWarmerCountsConditionalMispredictsOnly(t *testing.T) {
	cfg := Config4Wide()
	w := &funcWarmer{hier: mem.NewHierarchy(cfg.Mem), bp: bpred.New(cfg.Bpred),
		lineMask: ^uint64(cfg.Mem.IL1.LineSize - 1)}
	// A cold indirect jump has no target prediction, so fetch would
	// mispredict it.
	jmp := trace.DynInst{PC: 0x1000, NextPC: 0x8000, Taken: true,
		Inst: isa.Inst{Op: isa.OpJMP, Rd: isa.ZeroInt, Ra: isa.IntReg(5)}}
	if _, mispred, _ := accessBranchPredictors(bpred.New(cfg.Bpred), &jmp); !mispred {
		t.Fatal("a cold indirect jump should mispredict")
	}
	if _, misp := w.observe(&jmp); misp {
		t.Fatal("warmer counted a jump mispredict")
	}
	// Direction counters reset to weakly taken: a cold not-taken
	// conditional branch mispredicts.
	beqz := trace.DynInst{PC: 0x2000, NextPC: 0x2008,
		Inst: isa.Inst{Op: isa.OpBEQZ, Ra: isa.IntReg(1), Imm: 4}}
	if _, misp := w.observe(&beqz); !misp {
		t.Fatal("warmer missed a conditional-branch mispredict")
	}
}

func TestMustValidateWindowSplit(t *testing.T) {
	cases := []struct {
		name           string
		warmup, budget uint64
		wantPanic      bool
	}{
		{"unbudgeted run ignores warmup", 5000, 0, false},
		{"warmup below budget", 5000, 8000, false},
		{"no warmup", 0, 8000, false},
		{"warmup equals budget", 8000, 8000, true},
		{"warmup exceeds budget", 9000, 8000, true},
		{"one-instruction measurement", 7999, 8000, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if (recover() != nil) != c.wantPanic {
					t.Errorf("warmup=%d budget=%d: panic=%v, want %v",
						c.warmup, c.budget, !c.wantPanic, c.wantPanic)
				}
			}()
			mustValidateWindowSplit(c.warmup, c.budget)
		})
	}
}

func TestMustValidateWindows(t *testing.T) {
	valid := []SampleWindow{
		{Start: 1000, Warmup: 200, Measure: 500, Weight: 0.5, Phase: 0},
		{Start: 5000, Warmup: 200, Measure: 500, Weight: 0.5, Phase: 1},
	}
	cases := []struct {
		name      string
		ws        []SampleWindow
		wantPanic bool
	}{
		{"valid plan", valid, false},
		{"empty plan", nil, true},
		{"empty measurement", []SampleWindow{{Start: 0, Measure: 0, Weight: 1}}, true},
		{"zero weight", []SampleWindow{{Start: 0, Measure: 100, Weight: 0}}, true},
		{"negative weight", []SampleWindow{{Start: 0, Measure: 100, Weight: -0.5}}, true},
		{"unsorted", []SampleWindow{valid[1], valid[0]}, true},
		{"warmup+measure wraps", []SampleWindow{{Start: 0, Warmup: ^uint64(0), Measure: 2, Weight: 1}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if (recover() != nil) != c.wantPanic {
					t.Errorf("panic=%v, want %v", !c.wantPanic, c.wantPanic)
				}
			}()
			mustValidateWindows(c.ws)
		})
	}
}

// A stream that runs dry before warmup completes must fail loudly, not
// report the contaminated transient as measured data.
func TestRunPanicsWhenStreamEndsDuringWarmup(t *testing.T) {
	p, _ := trace.ProfileByName("gzip")
	cfg := Config4Wide()
	cfg.WarmupInsts = 50000
	defer func() {
		if recover() == nil {
			t.Fatal("10k-instruction stream under a 50k warmup must panic")
		}
	}()
	New(cfg, trace.NewSynthetic(p, 10000)).Run()
}

// sampleEveryK builds a window plan covering every k-th interval of a
// budget — a dense, manually weighted plan exercising RunSampled
// without the phase-detection layer.
func sampleEveryK(budget, interval, warmup uint64, k int) []SampleWindow {
	n := int(budget / interval)
	var ws []SampleWindow
	for i := 0; i < n; i += k {
		ws = append(ws, SampleWindow{
			Start:   uint64(i) * interval,
			Warmup:  warmup,
			Measure: interval,
			Weight:  0, // filled below
			Phase:   i % 2,
		})
	}
	for i := range ws {
		ws[i].Weight = 1 / float64(len(ws))
	}
	return ws
}

func TestRunSampledExtrapolation(t *testing.T) {
	const budget = 400000
	p, _ := trace.ProfileByName("gzip")
	cfg := Config4Wide()
	full := New(func() Config { c := cfg; c.MaxInsts = budget; return c }(), trace.NewSynthetic(p, budget)).Run()

	// Stride 3, uniform weights. A wider stride would magnify this
	// plan's deliberate naivety: the window at Start=0 measures the
	// stream's one-off cold transient, and a uniform weight extrapolates
	// that cost over its whole stratum (the phase-aware planner in
	// internal/sample gives such intervals their own small-weight phase;
	// the experiments-level validation pins the accuracy of that path).
	ws := sampleEveryK(budget, 5000, 1000, 3)
	st := RunSampled(cfg, trace.NewSynthetic(p, budget), ws, budget)

	if st.Sampled == nil {
		t.Fatal("sampled run must carry SampledMeta")
	}
	m := st.Sampled
	if m.TotalInsts != budget || m.Windows != len(ws) {
		t.Fatalf("meta: %+v", m)
	}
	if m.DetailedInsts >= budget/2 {
		t.Fatalf("detailed %d of %d — not sampling", m.DetailedInsts, budget)
	}
	if m.DetailedInsts+m.FFInsts > budget {
		t.Fatalf("detailed %d + fastforward %d exceed the stream", m.DetailedInsts, m.FFInsts)
	}
	if len(m.PerWindow) != len(ws) {
		t.Fatalf("%d PerWindow records, want %d", len(m.PerWindow), len(ws))
	}
	for i, w := range m.PerWindow {
		if w.Committed == 0 || w.Cycles == 0 {
			t.Fatalf("PerWindow[%d] empty: %+v", i, w)
		}
		if w.Start != ws[i].Start {
			t.Fatalf("PerWindow[%d].Start = %d, want %d", i, w.Start, ws[i].Start)
		}
	}
	if st.Committed != budget {
		t.Fatalf("extrapolated Committed = %d, want %d", st.Committed, budget)
	}
	// Accounting identity: Cycles is the CPI-stack class sum.
	sum := uint64(0)
	for _, c := range st.CycleClasses {
		sum += c
	}
	if sum != st.Cycles {
		t.Fatalf("CycleClasses sum %d != Cycles %d", sum, st.Cycles)
	}
	// A 20% systematic sample of a quasi-stationary stream lands close.
	if r := st.IPC() / full.IPC(); r < 0.93 || r > 1.07 {
		t.Fatalf("sampled IPC %.4f vs full %.4f (ratio %.4f)", st.IPC(), full.IPC(), r)
	}
}

func TestRunSampledDeterministic(t *testing.T) {
	const budget = 200000
	p, _ := trace.ProfileByName("vortex")
	ws := sampleEveryK(budget, 4000, 800, 10)
	a := RunSampled(Config4Wide(), trace.NewSynthetic(p, budget), ws, budget)
	b := RunSampled(Config4Wide(), trace.NewSynthetic(p, budget), ws, budget)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical sampled runs must produce identical Stats")
	}
}
