// Package uarch implements the cycle-level out-of-order pipeline model:
// a 12-stage speculative-scheduling superscalar core in the style of the
// paper's extended SimpleScalar/Alpha simulator, with the half-price
// scheduler and register-file variants as composable configuration knobs.
//
// Pipeline: F1 F2 D1 D2 REN DISP | SCHED PAYL RF EXE WB CMT. The front
// six stages are modelled as a fetch→dispatch delay; the scheduler,
// register access, execution, and commit are modelled structurally.
package uarch

import (
	"fmt"

	"halfprice/internal/bpred"
	"halfprice/internal/isa"
	"halfprice/internal/mem"
)

// WakeupScheme selects the issue-queue wakeup logic (paper §3).
type WakeupScheme uint8

const (
	// WakeupConventional gives every entry two tag comparators on the
	// full-speed wakeup bus — the overdesigned baseline.
	WakeupConventional WakeupScheme = iota
	// WakeupSequential is the paper's scheme: one comparator per entry on
	// the fast bus, the other side listening to a slow bus that
	// rebroadcasts tags one cycle later. The operand predictor assigns
	// the predicted-last-arriving operand to the fast side.
	WakeupSequential
	// WakeupTagElim is Ernst & Austin's tag elimination baseline: a
	// single comparator watching the predicted-last operand, a scoreboard
	// that detects wrong-order issue one cycle later, and non-selective
	// replay of everything issued in the detection shadow.
	WakeupTagElim
	// WakeupPipelined is the Hrishikesh/Stark-style alternative the
	// paper's related work discusses (§3): break the atomic wakeup+select
	// loop into two pipeline stages. Every wakeup-delivered tag arrives
	// one cycle later, so dependent instructions can no longer issue
	// back-to-back — the cost sequential wakeup is designed to avoid.
	WakeupPipelined
)

// String names the scheme.
func (w WakeupScheme) String() string {
	switch w {
	case WakeupConventional:
		return "conventional"
	case WakeupSequential:
		return "seq-wakeup"
	case WakeupTagElim:
		return "tag-elim"
	case WakeupPipelined:
		return "pipelined"
	}
	return fmt.Sprintf("wakeup(%d)", uint8(w))
}

// OperandPredictor selects the last-arriving operand predictor feeding
// sequential wakeup and tag elimination.
type OperandPredictor uint8

const (
	// OpPredBimodal is the paper's PC-indexed bimodal table (1k entries
	// in the evaluation; size set by Config.OpPredEntries).
	OpPredBimodal OperandPredictor = iota
	// OpPredStaticRight always places the right operand on the fast side
	// — the paper's "without a predictor" configuration.
	OpPredStaticRight
	// OpPredTwoLevel is a local-history predictor representative of the
	// "more sophisticated designs" the paper compared against (§3.2):
	// more table state and a serial second lookup for roughly the same
	// accuracy on realistic workloads.
	OpPredTwoLevel
)

// RegfileScheme selects the register-file read-port organisation (paper §4).
type RegfileScheme uint8

const (
	// RFTwoPort is the baseline: two read ports per issue slot, never a
	// structural hazard.
	RFTwoPort RegfileScheme = iota
	// RFSequential is the paper's scheme: one read port per issue slot;
	// an instruction needing two register reads (detected with the
	// nowL/nowR match bits) issues with one extra cycle of latency and
	// disables its issue slot for the following cycle.
	RFSequential
	// RFExtraStage keeps two ports per slot but pipelines the register
	// file one stage deeper, lengthening branch recovery and the
	// speculative scheduling shadow.
	RFExtraStage
	// RFHalfCrossbar halves total read ports and shares them through a
	// global crossbar with all-issued-instruction arbitration
	// (Balasubramonian-style); selected instructions beyond the port
	// budget retry next cycle.
	RFHalfCrossbar
)

// String names the scheme.
func (r RegfileScheme) String() string {
	switch r {
	case RFTwoPort:
		return "2-port"
	case RFSequential:
		return "seq-rf"
	case RFExtraStage:
		return "extra-stage"
	case RFHalfCrossbar:
		return "crossbar"
	}
	return fmt.Sprintf("rf(%d)", uint8(r))
}

// SelectPolicy orders ready instructions at the select stage.
type SelectPolicy uint8

const (
	// SelectLoadBranchFirst is the paper's policy: loads and branches in
	// a higher priority class, oldest first within each class (§2.1,
	// matching the base SimpleScalar model).
	SelectLoadBranchFirst SelectPolicy = iota
	// SelectOldestFirst is pure age order, no class priority.
	SelectOldestFirst
	// SelectPositional approximates a position-based (non-age) select
	// tree: entries are picked by window position, which after wraps is
	// uncorrelated with age — the cheap selector the paper's
	// oldest-first policy is implicitly compared against.
	SelectPositional
)

// String names the policy.
func (p SelectPolicy) String() string {
	switch p {
	case SelectOldestFirst:
		return "oldest"
	case SelectPositional:
		return "positional"
	}
	return "load-branch-first"
}

// RecoveryScheme selects how mis-scheduled instructions (issued in a
// missing load's shadow) are replayed.
type RecoveryScheme uint8

const (
	// RecoveryNonSelective replays everything issued in the shadow,
	// dependent or not (Alpha 21264 style; the paper's machine).
	RecoveryNonSelective RecoveryScheme = iota
	// RecoverySelective replays only the missing load's dependents,
	// using kill-bus dependence matrices (paper §3.1, Figure 5).
	RecoverySelective
)

// String names the scheme.
func (r RecoveryScheme) String() string {
	if r == RecoverySelective {
		return "selective"
	}
	return "non-selective"
}

// Config describes one machine. Build instances with Config4Wide or
// Config8Wide and override fields as needed.
type Config struct {
	Width      int // fetch = issue = commit width
	WindowSize int // RUU entries
	LSQSize    int

	// Functional units (Table 1).
	IntALU    int
	IntMulDiv int
	FpALU     int
	FpMulDiv  int
	MemPorts  int

	// Latencies per class (Table 1).
	IntALULat, IntMulLat, IntDivLat int
	FpALULat, FpMulLat, FpDivLat    int

	// FrontEndStages is the fetch-to-dispatch depth (F1 F2 D1 D2 REN
	// DISP = 6), and ExtraMispredictPenalty pads branch recovery so the
	// minimum misprediction penalty matches Table 1's ">= 11 cycles".
	FrontEndStages         int
	ExtraMispredictPenalty int

	Wakeup        WakeupScheme
	OpPred        OperandPredictor
	OpPredEntries int
	Regfile       RegfileScheme
	Recovery      RecoveryScheme
	// Rename and Bypass are the paper's §6 future-work extensions
	// (half-price renaming and bypass); the zero values are the
	// conventional full-price structures.
	Rename RenameScheme
	Bypass BypassScheme

	// SlowBusDelay is the extra latency of sequential wakeup's slow bus
	// in cycles (0 means the paper's 1). A deeper slow path models a
	// physically remote slow-side array — an ablation for how much
	// wakeup slack the design can actually exploit.
	SlowBusDelay int

	// Select chooses the selection policy (the paper uses
	// oldest-first with loads and branches prioritised, §2.1).
	Select SelectPolicy

	// PerfectBranchPred makes the front end oracle-accurate (no
	// misprediction stalls). An ablation knob: with branch noise
	// removed, the pipeline runs denser and the half-price penalties
	// have less slack to hide in.
	PerfectBranchPred bool

	Mem   mem.HierarchyConfig
	Bpred bpred.Config

	// MaxInsts bounds the number of committed instructions (0 = run the
	// stream dry).
	MaxInsts uint64
	// WarmupInsts discards statistics for the first N committed
	// instructions (caches, predictors and the window stay warm), so
	// measurements exclude the cold-start transient. MaxInsts counts
	// from the beginning, warmup included.
	WarmupInsts uint64
}

// Config4Wide returns the paper's 4-wide machine (Table 1).
func Config4Wide() Config {
	return Config{
		Width:      4,
		WindowSize: 64,
		LSQSize:    32,
		IntALU:     4,
		IntMulDiv:  2,
		FpALU:      2,
		FpMulDiv:   2,
		MemPorts:   2,

		IntALULat: 1, IntMulLat: 3, IntDivLat: 20,
		FpALULat: 2, FpMulLat: 4, FpDivLat: 12,

		FrontEndStages:         6,
		ExtraMispredictPenalty: 2,

		Wakeup:        WakeupConventional,
		OpPred:        OpPredBimodal,
		OpPredEntries: 1024,
		Regfile:       RFTwoPort,
		Recovery:      RecoveryNonSelective,

		Mem:   mem.DefaultHierarchyConfig(),
		Bpred: bpred.DefaultConfig(),
	}
}

// Config8Wide returns the paper's 8-wide machine (Table 1).
func Config8Wide() Config {
	c := Config4Wide()
	c.Width = 8
	c.WindowSize = 128
	c.LSQSize = 64
	c.IntALU = 8
	c.IntMulDiv = 4
	c.FpALU = 4
	c.FpMulDiv = 4
	c.MemPorts = 4
	return c
}

// mustValidate panics on impossible configurations; configs are static
// data, so a bad one is a programming error. Every exported knob is
// checked here (hpvet's configcover analyzer enforces that new fields
// join this path, so they cannot be silently ignored).
func (c Config) mustValidate() {
	mustf(c.Width > 0 && c.WindowSize > 0 && c.LSQSize > 0, "uarch: width, window and LSQ must be positive")
	mustf(c.IntALU > 0 && c.MemPorts > 0, "uarch: need at least one ALU and one memory port")
	mustf(c.IntMulDiv >= 0 && c.FpALU >= 0 && c.FpMulDiv >= 0, "uarch: functional unit counts must be non-negative")
	mustf(c.IntALULat > 0 && c.IntMulLat > 0 && c.IntDivLat > 0 &&
		c.FpALULat > 0 && c.FpMulLat > 0 && c.FpDivLat > 0,
		"uarch: execution latencies must be positive")
	// The completion calendar files each issued entry under a cycle later
	// than its issue; a negative memory latency would complete a load
	// before it issued.
	mustf(c.Mem.IL1.Lat >= 0 && c.Mem.DL1.Lat >= 0 && c.Mem.L2.Lat >= 0 && c.Mem.MemLatency >= 0,
		"uarch: memory latencies must be non-negative")
	mustf(c.FrontEndStages > 0, "uarch: front end must have stages")
	mustf(c.ExtraMispredictPenalty >= 0, "uarch: ExtraMispredictPenalty must be non-negative")
	mustf(c.Wakeup <= WakeupPipelined, "uarch: unknown wakeup scheme %d", c.Wakeup)
	mustf(c.OpPred <= OpPredTwoLevel, "uarch: unknown operand predictor %d", c.OpPred)
	mustf(c.OpPredEntries > 0 && c.OpPredEntries&(c.OpPredEntries-1) == 0, "uarch: OpPredEntries must be a positive power of two")
	mustf(c.Regfile <= RFHalfCrossbar, "uarch: unknown register file scheme %d", c.Regfile)
	mustf(c.Recovery <= RecoverySelective, "uarch: unknown recovery scheme %d", c.Recovery)
	mustf(c.Rename <= RenameHalfPorts, "uarch: unknown rename scheme %d", c.Rename)
	mustf(c.Bypass <= BypassHalf, "uarch: unknown bypass scheme %d", c.Bypass)
	mustf(c.Select <= SelectPositional, "uarch: unknown select policy %d", c.Select)
	mustf(c.SlowBusDelay >= 0, "uarch: SlowBusDelay must be non-negative")
	mustValidateWindowSplit(c.WarmupInsts, c.MaxInsts)
}

// mustValidateWindowSplit checks the warmup/measure window arithmetic
// shared by whole-run configs and sampled windows: the measurement
// region (budget minus warmup) must be non-empty, and the split must
// not wrap uint64. An ill-formed split would otherwise measure zero
// instructions and report an all-zero Stats as if it were real data.
func mustValidateWindowSplit(warmup, budget uint64) {
	if budget == 0 {
		return // unbudgeted: the stream length bounds the run
	}
	// Guarded so that the arguments are boxed only on failure: a sampled
	// run validates every window.
	if warmup >= budget {
		mustf(false, "uarch: empty measurement region: warmup=%d consumes the whole budget=%d", warmup, budget)
	}
}

// slowBusDelay returns the slow-bus extra latency in cycles (default 1).
func (c *Config) slowBusDelay() int64 {
	if c.SlowBusDelay == 0 {
		return 1
	}
	return int64(c.SlowBusDelay)
}

// latency returns the execution latency for a class (loads handled
// separately by the memory system).
func (c *Config) latency(class isa.ExecClass) int {
	switch class {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassSys, isa.ClassStore:
		return c.IntALULat
	case isa.ClassIntMult:
		return c.IntMulLat
	case isa.ClassIntDiv:
		return c.IntDivLat
	case isa.ClassFpALU:
		return c.FpALULat
	case isa.ClassFpMult:
		return c.FpMulLat
	case isa.ClassFpDiv:
		return c.FpDivLat
	}
	return 1
}

// pipelined reports whether the class's functional unit accepts a new
// operation every cycle (dividers do not).
func pipelined(class isa.ExecClass) bool {
	return class != isa.ClassIntDiv && class != isa.ClassFpDiv
}
