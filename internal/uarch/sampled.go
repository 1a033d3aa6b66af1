package uarch

// Sampled simulation (SimPoint-style): instead of pricing every
// instruction through the detailed pipeline, RunSampled fast-forwards
// between a handful of representative windows, simulating the skipped
// stretches functionally — caches and branch predictors stay warm, but
// no cycles are charged — and runs the full out-of-order model only
// inside each window (a short detailed warmup, then the measured
// region). Whole-run statistics are then extrapolated from the
// per-window rates under the windows' weights, with a stratified
// confidence interval from the within-phase spread.
//
// The window plan comes from internal/sample (phase detection over
// interval signatures); this file is deliberately ignorant of how the
// windows were chosen — it only requires them sorted and weighted.

import (
	"math"

	"halfprice/internal/bpred"
	"halfprice/internal/mem"
	"halfprice/internal/opred"
	"halfprice/internal/trace"
)

// SampleWindow is one representative region of the instruction stream
// scheduled for detailed simulation.
type SampleWindow struct {
	// Start is the absolute dynamic-instruction index where measurement
	// begins.
	Start uint64
	// Warmup is the detailed (cycle-accurate, statistics-discarded)
	// warmup simulated immediately before Start, on top of the
	// functional warming of everything skipped.
	Warmup uint64
	// Measure is the measured window length in instructions.
	Measure uint64
	// Weight is the fraction of the whole run this window stands for;
	// a plan's weights sum to 1.
	Weight float64
	// Phase is the phase index the window represents; windows sharing a
	// phase pool their spread into the confidence interval.
	Phase int
}

// mustValidateWindows rejects ill-formed window plans: empty plans,
// empty measurement regions, non-positive weights, unsorted windows,
// and windows whose warmup+measure arithmetic wraps.
// Each check calls mustf only on failure, so that a valid plan boxes no
// arguments.
func mustValidateWindows(ws []SampleWindow) {
	mustf(len(ws) > 0, "uarch: sampled run needs at least one window")
	for i, w := range ws {
		if w.Measure == 0 {
			mustf(false, "uarch: sample window %d at %d has an empty measurement region", i, w.Start)
		}
		if w.Warmup+w.Measure < w.Measure {
			mustf(false, "uarch: sample window %d warmup+measure wraps uint64", i)
		}
		mustValidateWindowSplit(w.Warmup, w.Warmup+w.Measure)
		if !(w.Weight > 0) {
			mustf(false, "uarch: sample window %d at %d has non-positive weight %g", i, w.Start, w.Weight)
		}
		if i > 0 && ws[i-1].Start > w.Start {
			mustf(false, "uarch: sample windows must be sorted by Start (window %d)", i)
		}
	}
}

// SampledMeta records how an extrapolated Stats was produced; Stats
// from full runs carry a nil Sampled pointer.
type SampledMeta struct {
	// TotalInsts is the whole-run instruction count the extrapolation
	// targets.
	TotalInsts uint64 `json:"total"`
	// DetailedInsts counts instructions simulated through the detailed
	// pipeline (measured windows plus their detailed warmups) — the
	// denominator of the sampling speedup.
	DetailedInsts uint64 `json:"detailed"`
	// FFInsts counts instructions functionally warmed while fast-
	// forwarding between windows.
	FFInsts uint64 `json:"fastforward"`
	// Phases and Windows describe the plan that ran.
	Phases  int `json:"phases"`
	Windows int `json:"windows"`
	// IPCErr95 is the half-width of the 95% confidence interval on the
	// extrapolated IPC (absolute, same units as IPC), from the
	// stratified within-phase variance of per-window CPI.
	IPCErr95 float64 `json:"ipc_err95"`
	// PerWindow records each measured window's raw result, in stream
	// order — everything a diagnostic needs to audit the extrapolation
	// (which windows ran, what they weighed, what they measured).
	PerWindow []WindowMeasure `json:"per_window,omitempty"`
}

// WindowMeasure is one measured window's raw outcome inside a sampled
// run.
type WindowMeasure struct {
	// Start is the window's absolute starting instruction index.
	Start uint64 `json:"start"`
	// Weight is the run fraction the window stood for (including any
	// adjacent windows folded into it by fetch-ahead overshoot).
	Weight float64 `json:"weight"`
	// Phase is the phase the window represents.
	Phase int `json:"phase"`
	// Committed and Cycles are the measured region's size and cost.
	Committed uint64 `json:"committed"`
	Cycles    uint64 `json:"cycles"`
}

// RelErr95 returns the confidence half-width relative to the
// extrapolated IPC (for "±x%" rendering).
func (m *SampledMeta) RelErr95(ipc float64) float64 {
	if ipc <= 0 {
		return 0
	}
	return m.IPCErr95 / ipc
}

// funcWarmer applies an instruction's architectural side effects to the
// long-lived microarchitectural state — instruction and data caches,
// branch direction/indirect/RAS predictors — without charging cycles or
// touching statistics. It mirrors the pipeline's fetch/execute/commit
// access sequence, and consults the branch predictors through the same
// accessBranchPredictors as fetch, so a fast-forwarded stretch leaves the
// same predictor and cache contents a detailed run would have.
type funcWarmer struct {
	hier     *mem.Hierarchy
	bp       *bpred.Predictor
	lineMask uint64
	lastLine uint64
}

// observe warms the state with one instruction and reports what it saw:
// the load latency in cycles (0 for non-loads) and whether a conditional
// branch mispredicted. RunSampled discards both; the sampling profiler
// (ProfileForSampling) turns them into per-interval performance features.
func (w *funcWarmer) observe(d *trace.DynInst) (loadLat int, mispredict bool) {
	// Fetch path: one IL1 access per new line, as in Simulator.fetch.
	if line := d.PC & w.lineMask; line != w.lastLine {
		w.hier.FetchLatency(d.PC)
		w.lastLine = line
	}
	cond, mispred, _ := accessBranchPredictors(w.bp, d)
	switch {
	case d.Inst.Op.IsLoad():
		loadLat, _ = w.hier.LoadLatency(d.EffAddr)
	case d.Inst.Op.IsStore():
		w.hier.StoreLatency(d.EffAddr)
	}
	return loadLat, cond && mispred
}

// windowResult pairs one window's measured statistics with its plan
// position, weight and phase.
type windowResult struct {
	start  uint64
	st     *Stats
	weight float64
	phase  int
}

// RunSampled simulates the stream under a window plan and returns
// whole-run Stats extrapolated to totalInsts, with Stats.Sampled
// describing the run. The config must leave WarmupInsts and MaxInsts
// zero — the windows own both budgets.
//
// Between windows the stream is consumed functionally (funcWarmer);
// inside a window one Simulator, reset to a fresh pipeline at each window
// and kept for the whole run, runs over shared long-lived state
// (hierarchy, predictors, per-PC operand history), so microarchitectural
// warming accumulates across the whole run exactly once, in stream
// order. If a previous window's fetch-ahead overshot the next window's
// warmup region, the warmup shrinks (and the window slides, at worst)
// deterministically — the stream position is counted, never assumed:
// the fast-forward counts what it reads and the simulator what it took.
func RunSampled(cfg Config, stream trace.Stream, windows []SampleWindow, totalInsts uint64) *Stats {
	cfg.mustValidate()
	mustf(cfg.WarmupInsts == 0, "uarch: RunSampled owns warmup; Config.WarmupInsts must be zero")
	mustf(cfg.MaxInsts == 0, "uarch: RunSampled owns the budget; Config.MaxInsts must be zero")
	mustf(totalInsts > 0, "uarch: sampled run needs a positive whole-run instruction count")
	mustValidateWindows(windows)

	in := readerOf(stream)
	hier := mem.NewHierarchy(cfg.Mem)
	bp := bpred.New(cfg.Bpred)
	warm := &funcWarmer{hier: hier, bp: bp, lineMask: ^uint64(cfg.Mem.IL1.LineSize - 1)}
	var sim *Simulator
	var d trace.DynInst

	results := make([]windowResult, 0, len(windows))
	pos, ffInsts := uint64(0), uint64(0)
	for i, w := range windows {
		if pos >= w.Start+w.Measure {
			// The previous window's fetch-ahead consumed this whole
			// window (adjacent intervals at tiny interval sizes). Its
			// instructions were measured there; fold the weight into the
			// previous result rather than measuring nothing.
			mustf(len(results) > 0, "uarch: sample window %d starts before the stream (Start=%d)", i, w.Start)
			results[len(results)-1].weight += w.Weight
			continue
		}
		// Fast-forward with functional warming up to the detailed warmup
		// region.
		warmStart := uint64(0)
		if w.Start > w.Warmup {
			warmStart = w.Start - w.Warmup
		}
		for pos < warmStart && in.NextInto(&d) {
			pos++
			warm.observe(&d)
			ffInsts++
		}
		dwarm := uint64(0)
		if w.Start > pos {
			dwarm = w.Start - pos
		}
		wcfg := cfg
		wcfg.WarmupInsts = dwarm
		wcfg.MaxInsts = dwarm + w.Measure
		if sim == nil {
			sim = newWithState(wcfg, in, hier, bp, newOpPredictor(cfg), make(map[uint64]opred.Side))
		} else {
			sim.reset(wcfg)
		}
		st := sim.Run()
		pos += sim.taken
		if st.Committed == 0 {
			mustf(false, "uarch: sample window %d at %d measured nothing (stream ended at %d)", i, w.Start, pos)
		}
		results = append(results, windowResult{start: w.Start, st: st, weight: w.Weight, phase: w.Phase})
	}
	return extrapolateStats(results, totalInsts, ffInsts)
}

// extrapolateStats scales per-window measurements to whole-run Stats.
// Every event counter becomes a per-committed-instruction rate, the
// rates are combined under the window weights, and the combination is
// scaled by the whole-run instruction count. The CPI stack is scaled
// per class and Cycles re-derived as the class sum, preserving the
// accounting identity the balance test pins.
func extrapolateStats(results []windowResult, totalInsts, ffInsts uint64) *Stats {
	mustf(len(results) > 0, "uarch: nothing to extrapolate")
	// ext turns "events per committed instruction" into a whole-run count.
	ext := func(get func(*Stats) uint64) uint64 {
		rate := 0.0
		for _, r := range results {
			rate += r.weight * float64(get(r.st)) / float64(r.st.Committed)
		}
		return uint64(math.Round(rate * float64(totalInsts)))
	}

	out := NewStats()
	out.Committed = totalInsts
	out.Fetched = ext(func(s *Stats) uint64 { return s.Fetched })
	out.Issued = ext(func(s *Stats) uint64 { return s.Issued })
	for i := range out.ClassCounts {
		i := i
		out.ClassCounts[i] = ext(func(s *Stats) uint64 { return s.ClassCounts[i] })
	}
	for i := range out.ReadyAtInsert {
		i := i
		out.ReadyAtInsert[i] = ext(func(s *Stats) uint64 { return s.ReadyAtInsert[i] })
	}
	out.OrderSame = ext(func(s *Stats) uint64 { return s.OrderSame })
	out.OrderDiff = ext(func(s *Stats) uint64 { return s.OrderDiff })
	out.LastLeft = ext(func(s *Stats) uint64 { return s.LastLeft })
	out.LastRight = ext(func(s *Stats) uint64 { return s.LastRight })
	out.OpPredCorrect = ext(func(s *Stats) uint64 { return s.OpPredCorrect })
	out.OpPredIncorrect = ext(func(s *Stats) uint64 { return s.OpPredIncorrect })
	out.OpPredSimultaneous = ext(func(s *Stats) uint64 { return s.OpPredSimultaneous })
	out.RegBackToBack = ext(func(s *Stats) uint64 { return s.RegBackToBack })
	out.RegTwoReady = ext(func(s *Stats) uint64 { return s.RegTwoReady })
	out.RegNonBackToBack = ext(func(s *Stats) uint64 { return s.RegNonBackToBack })
	out.SeqWakeupDelays = ext(func(s *Stats) uint64 { return s.SeqWakeupDelays })
	out.TagElimMispreds = ext(func(s *Stats) uint64 { return s.TagElimMispreds })
	out.SeqRegAccesses = ext(func(s *Stats) uint64 { return s.SeqRegAccesses })
	out.ReplaySquashes = ext(func(s *Stats) uint64 { return s.ReplaySquashes })
	out.TagElimSquashes = ext(func(s *Stats) uint64 { return s.TagElimSquashes })
	out.CrossbarDeferrals = ext(func(s *Stats) uint64 { return s.CrossbarDeferrals })
	out.BranchMispredicts = ext(func(s *Stats) uint64 { return s.BranchMispredicts })
	out.CondBranches = ext(func(s *Stats) uint64 { return s.CondBranches })
	out.FetchStallCycles = ext(func(s *Stats) uint64 { return s.FetchStallCycles })
	out.RenameStalls = ext(func(s *Stats) uint64 { return s.RenameStalls })
	out.BypassConflicts = ext(func(s *Stats) uint64 { return s.BypassConflicts })

	detailed := uint64(0)
	for i := range out.CycleClasses {
		i := i
		//hp:nolint cycleacct -- sampled extrapolation: scales the measured CPI stack by window weights in one bulk write, not a per-cycle attribution
		out.CycleClasses[i] = ext(func(s *Stats) uint64 { return s.CycleClasses[i] })
		//hp:nolint cycleacct -- Cycles re-derived as the CPI-stack class sum so the accounting identity holds exactly after rounding
		out.Cycles += out.CycleClasses[i]
	}
	for _, r := range results {
		out.WarmupDiscarded += r.st.WarmupDiscarded
		detailed += r.st.Committed + r.st.WarmupDiscarded
		out.WakeupSlack.AddWeighted(r.st.WakeupSlack,
			r.weight*float64(totalInsts)/float64(r.st.Committed))
	}

	perWindow := make([]WindowMeasure, len(results))
	for i, r := range results {
		perWindow[i] = WindowMeasure{
			Start:     r.start,
			Weight:    r.weight,
			Phase:     r.phase,
			Committed: r.st.Committed,
			Cycles:    r.st.Cycles,
		}
	}
	out.Sampled = &SampledMeta{
		TotalInsts:    totalInsts,
		DetailedInsts: detailed,
		FFInsts:       ffInsts,
		Phases:        countPhases(results),
		Windows:       len(results),
		IPCErr95:      ipcErr95(results, out),
		PerWindow:     perWindow,
	}
	return out
}

// countPhases returns the number of distinct phases among the results.
func countPhases(results []windowResult) int {
	maxPhase := 0
	for _, r := range results {
		if r.phase > maxPhase {
			maxPhase = r.phase
		}
	}
	seen := make([]bool, maxPhase+1)
	n := 0
	for _, r := range results {
		if !seen[r.phase] {
			seen[r.phase] = true
			n++
		}
	}
	return n
}

// ipcErr95 computes the 95% confidence half-width on the extrapolated
// IPC. The estimator is stratified by phase: each phase contributes its
// within-phase sample variance of per-window CPI, weighted by the
// squared phase weight over its window count (Var = Σ w_p² s_p² / m_p).
// The CPI interval maps to IPC through the delta method
// (d(1/x) = dx / x²). Phases with a single window contribute zero
// spread — plan at least two windows per phase for honest intervals.
func ipcErr95(results []windowResult, out *Stats) float64 {
	maxPhase := 0
	for _, r := range results {
		if r.phase > maxPhase {
			maxPhase = r.phase
		}
	}
	type phaseAcc struct {
		w    float64   // phase weight (sum of window weights)
		cpis []float64 // per-window CPI observations
	}
	phases := make([]phaseAcc, maxPhase+1)
	for _, r := range results {
		p := &phases[r.phase]
		p.w += r.weight
		p.cpis = append(p.cpis, float64(r.st.Cycles)/float64(r.st.Committed))
	}
	varCPI := 0.0
	for _, p := range phases {
		m := len(p.cpis)
		if m < 2 {
			continue
		}
		mean := 0.0
		for _, c := range p.cpis {
			mean += c
		}
		mean /= float64(m)
		s2 := 0.0
		for _, c := range p.cpis {
			s2 += (c - mean) * (c - mean)
		}
		s2 /= float64(m - 1)
		varCPI += p.w * p.w * s2 / float64(m)
	}
	ciCPI := 1.96 * math.Sqrt(varCPI)
	cpi := float64(out.Cycles) / float64(out.Committed)
	if cpi <= 0 {
		return 0
	}
	return ciCPI / (cpi * cpi)
}
