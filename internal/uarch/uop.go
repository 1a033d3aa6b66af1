package uarch

import (
	"halfprice/internal/isa"
	"halfprice/internal/opred"
	"halfprice/internal/trace"
)

// notReady is the "infinitely far in the future" cycle.
const notReady = int64(1) << 60

type uopState uint8

const (
	// stateWaiting: in the issue queue, not (or no longer) issued.
	stateWaiting uopState = iota
	// stateIssued: selected; executing speculatively until verified.
	stateIssued
	// stateDone: result produced and stable.
	stateDone
	// stateCommitted: retired.
	stateCommitted
)

// decoded is one dynamic instruction as fetch decodes it: the oracle
// fields the back end reads and the instruction's operands, each worked
// out by a single call into isa (decode). It travels from fetch through
// the front queue into the uop and on to commit, so no later stage
// decodes the instruction again. The branch outcome (NextPC, Taken) stays
// behind at fetch, the only stage that reads it.
type decoded struct {
	seq     uint64
	pc      uint64
	effAddr uint64 // loads/stores
	inst    isa.Inst
	// uniq holds the unique non-zero source registers (isa.Inst.Srcs), and
	// nuniq their count: the source map-table lookups rename needs. Stores
	// list data and base, though only the base schedules.
	uniq  [2]isa.Reg
	nuniq uint8
	dest  isa.Reg // register written, or isa.RegNone (isa.Inst.Dest)
	class isa.ExecClass
	// opClass is the Figure 2–3 operand class (isa.Classify).
	opClass isa.OperandClass
}

// decode fills r from d in place (the record lives in the front queue).
func (r *decoded) decode(d *trace.DynInst) {
	r.seq, r.pc, r.effAddr, r.inst = d.Seq, d.PC, d.EffAddr, d.Inst
	a, b, n := d.Inst.Srcs()
	r.uniq, r.nuniq = [2]isa.Reg{a, b}, uint8(n)
	r.dest, _ = d.Inst.Dest()
	r.class = d.Inst.Op.Class()
	r.opClass = isa.Classify(d.Inst)
}

func (r *decoded) isLoad() bool   { return r.class == isa.ClassLoad }
func (r *decoded) isStore() bool  { return r.class == isa.ClassStore }
func (r *decoded) isBranch() bool { return r.class == isa.ClassBranch }

// is2Source reports a true 2-source instruction, the half-price target.
func (r *decoded) is2Source() bool { return r.opClass == isa.Class2Source }

// uop is one in-flight instruction occupying an RUU entry from dispatch to
// commit.
type uop struct {
	decoded
	// slot is the entry's stable window position in the SoA scheduler
	// core (schedcore.go), assigned at dispatch, freed at commit. It
	// indexes every scheduler bitmap and column; after commit it may be
	// reused, so slot-based lookups guard on state != stateCommitted.
	slot int32

	// Scheduling sources. Stores schedule on the base register only (the
	// split agen+move of §2.3); the data register's producer is older, so
	// it has committed before the store can.
	nsrc int
	src  [2]*uop // producer in the window; nil = architectural value

	state         uopState
	dispatchCycle int64
	issueCycle    int64
	// resultCycle is when the result is available to consumers: an
	// instruction issuing exactly then captures the value off the bypass.
	// For loads it is speculative (assumed DL1 hit) until verifyCycle.
	resultCycle int64
	// Loads: the true availability and the cycle hit/miss is known.
	actualResultCycle int64
	verifyCycle       int64
	missed            bool
	forwarded         bool
	addrKnownCycle    int64
	// sqTail is the store-queue tail when this memory operation
	// dispatched: the stores older than it are [Simulator.sqHead, sqTail).
	sqTail int
	// The cache access persists across replays (MSHR semantics): a
	// squashed load's miss keeps progressing; on re-issue the data
	// arrives at memDataAt, not after a fresh full-latency access.
	memAccessDone bool
	memDataAt     int64

	// Wakeup-scheme bookkeeping.
	predicted    opred.Side // operand predicted to arrive last
	fastSide     opred.Side // sequential: fast-bus side; tag-elim: watched side
	hasPred      bool
	teScoreboard bool // tag elimination: post-fault precise mode
	seqRegAccess bool // issued as a sequential (double) register access

	// Dispatch-time census for Figures 4/10.
	readyAtInsert   int
	pendingAtInsert [2]bool
}

// resultAvail returns the cycle u's result becomes available to consumers
// (notReady while it has not issued or was squashed back to waiting).
func (u *uop) resultAvail() int64 {
	switch u.state {
	case stateIssued, stateDone, stateCommitted:
		return u.resultCycle
	default:
		return notReady
	}
}

// completeCycle returns the cycle u finishes executing: its result cycle,
// or for a load the cycle its data truly arrives. issueOne fixes both,
// later than the issue cycle.
func (u *uop) completeCycle() int64 {
	if u.isLoad() {
		return u.actualResultCycle
	}
	return u.resultCycle
}

// srcAvail returns the cycle operand i's value is available, with base
// (fast-bus) timing.
func (u *uop) srcAvail(i int) int64 {
	p := u.src[i]
	if p == nil {
		return 0 // architectural value, ready since before dispatch
	}
	return p.resultAvail()
}

// wokenAfterInsert reports whether operand i's tag is (or will be)
// delivered by the wakeup bus rather than the dispatch-time scoreboard
// read.
func (u *uop) wokenAfterInsert(i int) bool {
	return u.srcAvail(i) > u.dispatchCycle
}

// sideIndex maps an operand side to its source index.
func sideIndex(s opred.Side) int {
	if s == opred.Left {
		return 0
	}
	return 1
}
