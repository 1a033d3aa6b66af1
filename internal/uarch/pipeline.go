package uarch

import (
	"fmt"
	"math/bits"

	"halfprice/internal/bpred"
	"halfprice/internal/isa"
	"halfprice/internal/mem"
	"halfprice/internal/opred"
	"halfprice/internal/trace"
)

// fqEntry is an instruction in flight between fetch and dispatch.
type fqEntry struct {
	decoded
	arrive  int64 // cycle it reaches dispatch
	mispred bool  // fetch mispredicted this branch; blocks fetch until resolve
	hasPred bool
	pred    opred.Side
}

// Simulator is one out-of-order core executing one dynamic instruction
// stream under a Config.
type Simulator struct {
	cfg    Config
	stream instReader
	hier   *mem.Hierarchy
	bp     *bpred.Predictor
	op     opred.Predictor
	st     *Stats

	cycle int64

	// Lookahead instruction not yet fetched, held by value: taking the
	// stream output through a heap pointer costs one allocation per
	// instruction in the hot loop. The stream writes it in place.
	pending    trace.DynInst
	hasPending bool
	streamEnd  bool
	// taken counts the instructions read from the stream, the lookahead
	// included. RunSampled advances its stream position by it.
	taken uint64

	// frontQ is the fetch-to-dispatch queue: a power-of-two ring holding
	// fqLen entries from fqHead. It starts just above the
	// FrontEndStages×Width a real front end holds, but fetch never checks
	// its length (a known deviation, PIPELINE.md §Stage map), so
	// pushFront doubles it when full.
	frontQ []fqEntry
	fqHead int
	fqLen  int
	// lsqLen counts the in-flight loads and stores, the LSQ occupancy
	// dispatch checks against LSQSize. sq is the store queue: the
	// in-flight stores in program order, in a power-of-two ring of at
	// least LSQSize entries indexed by absolute store number, holding
	// numbers [sqHead, sqTail). Stores commit in order, so commit pops
	// the head.
	lsqLen         int
	sq             []*uop
	sqHead, sqTail int
	// regMap names each register's in-flight producer, or nil for the
	// architectural value.
	regMap [isa.NumArchRegs]*uop

	// uops is the window's entry storage: a ring of 2×WindowSize uops
	// handed out in dispatch order from uopNext. A consumer points only at
	// producers in flight when it dispatched, so fewer than WindowSize
	// older than itself. An entry comes round again 2×WindowSize
	// dispatches later, when every uop in flight is more than WindowSize
	// younger than its previous occupant: that occupant's consumers have
	// committed and nothing reads it any more.
	uops    []uop
	uopNext int

	// sched is the SoA/bitmap issue-queue core (schedcore.go): per-slot
	// wake cycles, the waiting/issued/priority bitmaps the wakeup and
	// select stages run on, and the per-producer listener bitmaps. Its
	// slot ring is also the reorder buffer: the in-flight entries in
	// program order.
	sched *schedCore
	// issuedBuf collects this cycle's grants for tag-elimination fault
	// recovery, and missedBuf the loads verifyLoads found missing (both
	// reused each cycle; no per-cycle allocation).
	issuedBuf []*uop
	missedBuf []*uop

	// Fetch control.
	fetchResume   int64
	redirect      *uop // mispredicted branch being waited on (post-dispatch)
	redirectInFQ  bool // mispredicted branch still in the front queue
	lastFetchLine uint64

	// Issue control.
	disabledSlots     int // issue slots disabled this cycle (sequential RF bubble)
	disabledSlotsNext int
	issueBlockedCycle int64 // tag-elimination detection shadow: no issue this cycle

	// Non-pipelined divider occupancy.
	intDivBusy []int64
	fpDivBusy  []int64

	// Speculatively scheduled loads awaiting hit/miss verification.
	specLoads []*uop

	// Table 3 per-PC last-arriving history.
	lastSidePC map[uint64]opred.Side

	// onCommit, when set, observes every committed uop (test hook).
	onCommit func(*uop)
	// issueOverride, when set, replaces the issue stage (test hook: the
	// scheduler-core equivalence test runs the reference slice-and-sort
	// select through it against the production bitmap core).
	issueOverride func(c int64)
	// tracer, when set, observes every pipeline event (SetTracer).
	tracer Tracer
	// hot, when set, profiles events per static PC (EnableHotSpots).
	hot *HotSpots
}

// New builds a simulator over the stream. The stream is the architectural
// oracle: the pipeline replays it and charges cycles.
func New(cfg Config, stream trace.Stream) *Simulator {
	return newWithState(cfg, readerOf(stream),
		mem.NewHierarchy(cfg.Mem), bpred.New(cfg.Bpred), newOpPredictor(cfg),
		make(map[uint64]opred.Side))
}

// instReader is a stream that writes each instruction into a record the
// caller owns, so that the instruction is written once, where it is
// used. trace.Synthetic, trace.VMStream and trace.SliceStream read in
// place; readerOf adapts any other trace.Stream.
type instReader interface {
	NextInto(d *trace.DynInst) bool
}

// readerOf returns s itself when it reads in place, and otherwise an
// adapter that copies each instruction out of s.Next.
func readerOf(s trace.Stream) instReader {
	if r, ok := s.(instReader); ok {
		return r
	}
	return nextReader{s}
}

type nextReader struct{ s trace.Stream }

func (r nextReader) NextInto(d *trace.DynInst) bool {
	in, ok := r.s.Next()
	if ok {
		*d = in
	}
	return ok
}

// newOpPredictor builds the last-arriving operand predictor the config
// selects.
func newOpPredictor(cfg Config) opred.Predictor {
	switch cfg.OpPred {
	case OpPredStaticRight:
		return opred.Static{Side: opred.Right}
	case OpPredTwoLevel:
		return opred.NewTwoLevel(cfg.OpPredEntries, 6)
	default:
		return opred.NewBimodal(cfg.OpPredEntries)
	}
}

// newWithState builds a simulator around externally owned long-lived
// state (memory hierarchy, predictors, per-PC operand history); New
// passes fresh state for the ordinary whole-run case. RunSampled keeps
// one simulator for a whole sampled run and resets it at each window, so
// that warming survives between windows.
func newWithState(cfg Config, stream instReader, hier *mem.Hierarchy,
	bp *bpred.Predictor, op opred.Predictor, lastSidePC map[uint64]opred.Side) *Simulator {
	s := &Simulator{stream: stream, hier: hier, bp: bp, op: op, lastSidePC: lastSidePC}
	s.reset(cfg)
	return s
}

// reset puts s in the state newWithState builds for cfg over the same
// stream and long-lived state. Everything else starts afresh: the
// statistics, the cycle count, the window and its queues, the test hooks,
// and the lookahead instruction, which the previous run took from the
// stream but never fetched and which is dropped. Storage the previous run
// left behind is cleared and reused: the uop ring, the front-queue ring
// at the size it grew to, the scheduler core, the LSQ, the per-cycle
// buffers and the divider occupancy. newWithState builds through reset,
// so a field added later starts the same way in both.
func (s *Simulator) reset(cfg Config) {
	cfg.mustValidate()
	old := *s
	frontQ := old.frontQ
	if n := 1 << bits.Len(uint(cfg.FrontEndStages*cfg.Width)); len(frontQ) < n {
		frontQ = make([]fqEntry, n)
	} else {
		clear(frontQ)
	}
	sched := old.sched
	if sched == nil {
		sched = new(schedCore)
	}
	sched.reset(cfg.WindowSize)
	*s = Simulator{
		cfg:               cfg,
		stream:            old.stream,
		hier:              old.hier,
		bp:                old.bp,
		op:                old.op,
		lastSidePC:        old.lastSidePC,
		st:                NewStats(),
		sched:             sched,
		frontQ:            frontQ,
		uops:              reuse(old.uops, 2*cfg.WindowSize),
		sq:                reuse(old.sq, 1<<bits.Len(uint(cfg.LSQSize-1))),
		issuedBuf:         old.issuedBuf[:0],
		missedBuf:         old.missedBuf[:0],
		specLoads:         old.specLoads[:0],
		issueBlockedCycle: -1,
		intDivBusy:        reuse(old.intDivBusy, cfg.IntMulDiv),
		fpDivBusy:         reuse(old.fpDivBusy, cfg.FpMulDiv),
	}
}

// reuse returns buf resliced to n zeroed elements, allocating only when
// its capacity is short.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Stats returns the run's statistics (valid after Run).
func (s *Simulator) Stats() *Stats { return s.st }

// Hierarchy exposes the memory system (for experiment reporting).
func (s *Simulator) Hierarchy() *mem.Hierarchy { return s.hier }

// Bpred exposes the branch predictor (for experiment reporting).
func (s *Simulator) Bpred() *bpred.Predictor { return s.bp }

// Run simulates until the stream is exhausted and the pipeline drains, or
// until cfg.MaxInsts instructions commit. It returns the statistics.
func (s *Simulator) Run() *Stats {
	lastCommitted := uint64(0)
	idleCycles := 0
	warmupLeft := s.cfg.WarmupInsts
	for {
		if warmupLeft > 0 && s.st.Committed >= warmupLeft {
			// End of warmup: drop the transient's statistics but keep
			// all microarchitectural state (caches, predictors, window).
			committed := s.st.Committed
			s.st = NewStats()
			s.st.WarmupDiscarded = committed
			warmupLeft = 0
		}
		total := s.st.Committed + s.st.WarmupDiscarded
		if s.cfg.MaxInsts > 0 && total >= s.cfg.MaxInsts {
			break
		}
		if s.drained() {
			break
		}
		c := s.cycle
		before := s.st.Committed
		s.commit(c)
		s.st.CycleClasses[s.classifyCycle(s.st.Committed-before, c)]++
		s.sched.clearIssuedAt(c) // before either issue path fills it
		s.verifyLoads(c)
		s.complete(c)
		if s.issueOverride != nil {
			s.issueOverride(c)
		} else {
			s.issue(c)
		}
		s.dispatch(c)
		s.fetch(c)
		s.cycle++
		s.st.Cycles++

		if s.st.Committed == lastCommitted {
			idleCycles++
			// The guard stays out of mustf's variadic call: boxing the
			// arguments and formatting describeHead every cycle costs more
			// allocation than the whole scheduler.
			if idleCycles > 100000 {
				mustf(false, "uarch: no commit progress for %d cycles at cycle %d (window=%d, fq=%d): %s",
					idleCycles, s.cycle, s.sched.n, s.fqLen, s.describeHead())
			}
		} else {
			idleCycles = 0
			lastCommitted = s.st.Committed
		}
	}
	// A stream that runs dry before warmup completes leaves the
	// transient's statistics in place — silently reporting contaminated
	// numbers as if they were measured. That is a caller bug (budget
	// shorter than warmup): fail loudly instead.
	if s.cfg.WarmupInsts != 0 && s.st.WarmupDiscarded == 0 {
		mustf(false, "uarch: stream ended after %d instructions, before WarmupInsts=%d completed; the measurement region is empty",
			s.st.Committed, s.cfg.WarmupInsts)
	}
	return s.st
}

func (s *Simulator) drained() bool {
	return s.streamEnd && !s.hasPending && s.fqLen == 0 && s.sched.n == 0
}

func (s *Simulator) describeHead() string {
	if s.sched.n == 0 {
		return "empty window"
	}
	u := s.sched.at(0)
	return fmt.Sprintf("head seq=%d %v state=%d issue=%d result=%d", u.seq, u.inst, u.state, u.issueCycle, u.resultCycle)
}

// ---- fetch ----

func (s *Simulator) peek() *trace.DynInst {
	if !s.hasPending && !s.streamEnd {
		if s.stream.NextInto(&s.pending) {
			s.hasPending = true
			s.taken++
		} else {
			s.streamEnd = true
		}
	}
	if !s.hasPending {
		return nil
	}
	return &s.pending
}

func (s *Simulator) fetch(c int64) {
	if s.redirect != nil || s.redirectInFQ || c < s.fetchResume {
		if s.peek() != nil {
			s.st.FetchStallCycles++
		}
		return
	}
	lineMask := ^uint64(s.cfg.Mem.IL1.LineSize - 1)
	// The fetch unit reads one aligned block of Width instructions per
	// cycle; a bundle never straddles a block boundary.
	blockBytes := uint64(s.cfg.Width) * isa.InstBytes
	fetchBlock := uint64(0)
	for budget := s.cfg.Width; budget > 0; budget-- {
		d := s.peek()
		if d == nil {
			return
		}
		blk := d.PC / blockBytes
		if fetchBlock == 0 {
			fetchBlock = blk
		} else if blk != fetchBlock {
			return
		}
		if line := d.PC & lineMask; line != s.lastFetchLine {
			lat, hit := s.hier.FetchLatency(d.PC)
			s.lastFetchLine = line
			if !hit {
				// Stall until the line arrives; the instruction is
				// refetched then (the line is resident by that time).
				s.fetchResume = c + int64(lat-s.cfg.Mem.IL1.Lat)
				return
			}
		}
		s.hasPending = false
		s.st.Fetched++
		s.trace(c, EvFetch, d.Seq, d.Inst)
		e := s.pushFront()
		*e = fqEntry{arrive: c + int64(s.cfg.FrontEndStages)}
		e.decode(d)
		s.predictOperands(e)
		if s.predictBranch(e, d) {
			return
		}
	}
}

// pushFront appends an entry to the front queue, doubling the ring when
// full, and returns it for fetch to fill in place.
func (s *Simulator) pushFront() *fqEntry {
	if s.fqLen == len(s.frontQ) {
		grown := make([]fqEntry, 2*len(s.frontQ))
		n := copy(grown, s.frontQ[s.fqHead:])
		copy(grown[n:], s.frontQ[:s.fqHead])
		s.frontQ, s.fqHead = grown, 0
	}
	e := &s.frontQ[(s.fqHead+s.fqLen)&(len(s.frontQ)-1)]
	s.fqLen++
	return e
}

// predictOperands consults the last-arriving operand predictor in the
// fetch stage (paper §3.3) for true 2-source instructions.
func (s *Simulator) predictOperands(e *fqEntry) {
	if s.cfg.Wakeup != WakeupSequential && s.cfg.Wakeup != WakeupTagElim {
		return // only the predictor-steered schemes place operands
	}
	if e.is2Source() {
		e.hasPred = true
		e.pred = s.op.Predict(e.pc)
	}
}

// predictBranch runs the front-end branch predictors against d's oracle
// outcome, marks mispredictions (which stall fetch until resolution), and
// reports whether the fetch bundle ends at this instruction.
func (s *Simulator) predictBranch(e *fqEntry, d *trace.DynInst) bool {
	cond, mispred, taken := accessBranchPredictors(s.bp, d)
	if cond {
		s.st.CondBranches++
	}
	if mispred && !s.cfg.PerfectBranchPred {
		s.st.BranchMispredicts++
		e.mispred = true
		s.redirectInFQ = true
		return true
	}
	return taken // fetch stops at the first taken branch
}

// accessBranchPredictors runs one instruction through the branch
// predictors against its oracle outcome, in the order fetch consults
// them: the direction predictor for a conditional branch; the
// return-address stack for a BR call; for a JMP, the RAS on a return or
// the indirect predictor otherwise, then a push on a call. Fetch
// (predictBranch) and functional warming (funcWarmer) share it, so both
// leave the predictors in the same state. It reports whether d is a
// conditional branch, whether its target or direction was mispredicted,
// and whether it is a taken control transfer.
func accessBranchPredictors(bp *bpred.Predictor, d *trace.DynInst) (cond, mispred, taken bool) {
	in := &d.Inst
	switch {
	case in.Op.IsCondBranch():
		pred := bp.PredictCond(d.PC)
		bp.UpdateCond(d.PC, d.Taken)
		return true, pred != d.Taken, d.Taken
	case in.Op == isa.OpBR:
		// Direct target, computed in decode: never mispredicted.
		if dst, ok := in.Dest(); ok && dst == isa.RegRA {
			bp.PushRAS(d.PC + isa.InstBytes)
		}
		return false, false, true
	case in.Op == isa.OpJMP:
		isCall := false
		if dst, ok := in.Dest(); ok && dst == isa.RegRA {
			isCall = true
		}
		isRet := !isCall && in.Ra == isa.RegRA
		var predicted uint64
		var havePred bool
		if isRet {
			predicted, havePred = bp.PopRAS()
		} else {
			predicted, havePred = bp.PredictIndirect(d.PC)
		}
		correct := havePred && predicted == d.NextPC
		if !isRet {
			bp.UpdateIndirect(d.PC, d.NextPC, correct)
		}
		if isCall {
			bp.PushRAS(d.PC + isa.InstBytes)
		}
		return false, !correct, true
	}
	return false, false, false
}

// ---- dispatch ----

func (s *Simulator) dispatch(c int64) {
	// Half-price rename has one source map-table port per slot plus one
	// shared spare. Full-price rename's two per slot cannot run out, so
	// ports are counted only under RenameHalfPorts.
	halfRename := s.cfg.Rename == RenameHalfPorts
	renamePorts := s.cfg.Width + 1
	for n := 0; n < s.cfg.Width && s.fqLen > 0; n++ {
		e := &s.frontQ[s.fqHead]
		if e.arrive > c {
			return
		}
		if s.sched.n >= s.cfg.WindowSize {
			return
		}
		isMem := e.isLoad() || e.isStore()
		if isMem && s.lsqLen >= s.cfg.LSQSize {
			return
		}
		if halfRename {
			if int(e.nuniq) > renamePorts {
				// Out of source map-table ports this cycle; the rest of
				// the group dispatches next cycle.
				s.st.RenameStalls++
				return
			}
			renamePorts -= int(e.nuniq)
		}
		u := s.buildUop(e, c)
		s.fqHead = (s.fqHead + 1) & (len(s.frontQ) - 1)
		s.fqLen--
		s.schedInsert(u)
		s.trace(c, EvDispatch, u.seq, u.inst)
		if isMem {
			s.pushLSQ(u)
		}
		if e.mispred {
			s.redirect = u
			s.redirectInFQ = false
		}
	}
}

func (s *Simulator) buildUop(e *fqEntry, c int64) *uop {
	u := &s.uops[s.uopNext]
	if s.uopNext++; s.uopNext == len(s.uops) {
		s.uopNext = 0
	}
	// Reset the reused entry, then fill it in place: assigning a composite
	// literal through a pointer builds it in a temporary and copies the
	// whole uop.
	*u = uop{}
	u.decoded = e.decoded
	u.dispatchCycle = c
	u.addrKnownCycle = notReady
	u.hasPred = e.hasPred
	u.predicted = e.pred
	u.fastSide = e.pred
	if u.isStore() {
		// Split store: schedule the address generation on the base
		// register. The data move waits for nothing: its producer is
		// older, so it has committed before the store reaches the head.
		if base := u.inst.Ra; base.Valid() && !base.IsZero() {
			u.src[0] = s.regMap[base]
			u.nsrc = 1
		}
	} else {
		u.nsrc = int(u.nuniq)
		for i := 0; i < u.nsrc; i++ {
			u.src[i] = s.regMap[u.uniq[i]]
		}
	}
	if u.is2Source() {
		ready := 0
		for i := 0; i < 2; i++ {
			if u.wokenAfterInsert(i) {
				u.pendingAtInsert[i] = true
			} else {
				ready++
			}
		}
		u.readyAtInsert = ready
	}
	if u.dest != isa.RegNone {
		s.regMap[u.dest] = u
	}
	return u
}

// ---- completion ----

func (s *Simulator) complete(c int64) {
	// Only entries filed in the completion calendar under c can
	// complete. Read that row in age order, the order the tracer sees
	// completions in.
	sc := s.sched
	sc.order = sc.appendAge(sc.order[:0], sc.dueAt(c))
	for _, slot := range sc.order {
		u := sc.ent[slot]
		done := u.completeCycle()
		if done != c {
			continue // squashed since it was filed, and issued again
		}
		u.state = stateDone
		sc.clearIssued(u.slot)
		s.trace(c, EvComplete, u.seq, u.inst)
		if u == s.redirect {
			extra := int64(s.cfg.ExtraMispredictPenalty)
			if s.cfg.Regfile == RFExtraStage {
				extra++
			}
			s.fetchResume = done + 1 + extra
			s.redirect = nil
		}
	}
}
