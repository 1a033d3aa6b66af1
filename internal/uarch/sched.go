package uarch

import (
	"math/bits"

	"halfprice/internal/isa"
)

// effSrcAvail returns the cycle operand i's wakeup is visible to the
// entry under the configured wakeup scheme. Under sequential wakeup the
// slow-bus side of a 2-source entry hears tags one cycle late; operands
// that were ready at insert come from the dispatch-time scoreboard read
// and never pay the slow-bus delay.
func (s *Simulator) effSrcAvail(u *uop, i int) int64 {
	ra := u.srcAvail(i)
	if ra >= notReady {
		return ra
	}
	if s.cfg.Wakeup == WakeupSequential && u.nsrc == 2 &&
		i != sideIndex(u.fastSide) && ra > u.dispatchCycle {
		return ra + s.cfg.slowBusDelay()
	}
	if s.cfg.Wakeup == WakeupPipelined && ra > u.dispatchCycle {
		// Non-atomic wakeup+select: every broadcast tag lands one stage
		// later, on both operands — no back-to-back dependent issue.
		return ra + 1
	}
	return ra
}

// wakeCycleOf computes the earliest cycle a waiting entry may request
// issue: the cycle after dispatch, or the latest effective operand
// arrival, whichever is later. It is the closed form of the per-cycle
// eligibility test — an entry is eligible at c iff it is waiting and
// wakeCycleOf(u) <= c — cached per slot in schedCore.wakeCycle and
// refreshed by schedRecompute whenever a producer event changes an
// input (issue, squash, load-miss rebroadcast, tag-elim fault).
func (s *Simulator) wakeCycleOf(u *uop) int64 {
	e := u.dispatchCycle + 1
	if s.cfg.Wakeup == WakeupTagElim && u.nsrc == 2 && !u.teScoreboard {
		// Single comparator watching the predicted-last operand; the
		// other side is invisible after dispatch. The scoreboard check
		// happens at issue.
		if a := u.srcAvail(sideIndex(u.fastSide)); a > e {
			e = a
		}
		return e
	}
	for i := 0; i < u.nsrc; i++ {
		if a := s.effSrcAvail(u, i); a > e {
			e = a
		}
	}
	return e
}

// schedInsert files a freshly dispatched entry in the scheduler core:
// it takes a window slot, registers on each in-flight producer's
// listener bitmap, and caches its wake cycle (producers that already
// issued, or retired, contribute their known timing immediately).
func (s *Simulator) schedInsert(u *uop) {
	sc := s.sched
	sc.insert(u)
	for i := 0; i < u.nsrc; i++ {
		if p := u.src[i]; p != nil && p.state != stateCommitted {
			sc.listen(p.slot, u.slot)
		}
	}
	sc.setWake(u.slot, s.wakeCycleOf(u))
}

// schedRecompute refreshes one slot's wake cycle and refiles it in the
// wake calendar. It is safe to call on any slot: only a currently
// waiting occupant is recomputed, so stale listener bits (a retired
// producer's slot reused, a consumer that issued meanwhile) cost a
// recompute and nothing else.
func (s *Simulator) schedRecompute(slot int32) {
	sc := s.sched
	if u := sc.ent[slot]; u != nil && u.state == stateWaiting {
		sc.setWake(slot, s.wakeCycleOf(u))
	}
}

// schedBroadcast is the wakeup stage: producer p's result timing
// changed (it issued, was squashed, or rebroadcast after a load miss),
// so every waiting consumer on its listener bitmap re-evaluates its
// wake cycle — a masked broadcast over the source-match bitmap instead
// of a per-cycle scan over producer pointers.
func (s *Simulator) schedBroadcast(p *uop) {
	sc := s.sched
	row := sc.srcMatch[int(p.slot)*sc.words:]
	for w := 0; w < sc.words; w++ {
		m := row[w]
		for m != 0 {
			s.schedRecompute(int32(w<<6 + bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
}

// fu tracks per-cycle functional unit availability.
type fuState struct {
	intALU, intMul, fpALU, fpMul, memPorts int
}

func (s *Simulator) newFUState(c int64) fuState {
	f := fuState{
		intALU:   s.cfg.IntALU,
		fpALU:    s.cfg.FpALU,
		memPorts: s.cfg.MemPorts,
	}
	for _, busy := range s.intDivBusy {
		if busy <= c {
			f.intMul++
		}
	}
	for _, busy := range s.fpDivBusy {
		if busy <= c {
			f.fpMul++
		}
	}
	return f
}

// take reserves a unit for class; it reports false when none is free.
// Dividers additionally occupy their unit for the full latency.
func (s *Simulator) take(f *fuState, class isa.ExecClass, c int64, lat int) bool {
	switch class {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassSys:
		if f.intALU == 0 {
			return false
		}
		f.intALU--
	case isa.ClassIntMult, isa.ClassIntDiv:
		if f.intMul == 0 {
			return false
		}
		f.intMul--
		if class == isa.ClassIntDiv {
			s.occupyDiv(s.intDivBusy, c, lat)
		}
	case isa.ClassFpALU:
		if f.fpALU == 0 {
			return false
		}
		f.fpALU--
	case isa.ClassFpMult, isa.ClassFpDiv:
		if f.fpMul == 0 {
			return false
		}
		f.fpMul--
		if class == isa.ClassFpDiv {
			s.occupyDiv(s.fpDivBusy, c, lat)
		}
	case isa.ClassLoad, isa.ClassStore:
		if f.memPorts == 0 {
			return false
		}
		f.memPorts--
	}
	return true
}

func (s *Simulator) occupyDiv(busy []int64, c int64, lat int) {
	for i := range busy {
		if busy[i] <= c {
			busy[i] = c + int64(lat)
			return
		}
	}
}

// lsqReadyForLoad checks memory ordering: a load may issue only when every
// older store's address is known; it returns whether a matching older
// store forwards its data. It walks only the stores older than u,
// youngest first, because a young store with an unknown address usually
// ends the walk early.
func (s *Simulator) lsqReadyForLoad(u *uop, c int64) (forward, ok bool) {
	blk := u.effAddr &^ 7
	mask := len(s.sq) - 1
	for i := u.sqTail - 1; i >= s.sqHead; i-- {
		v := s.sq[i&mask]
		if v.addrKnownCycle > c {
			return false, false // conservative: wait for older addresses
		}
		if v.effAddr&^7 == blk {
			forward = true
		}
	}
	return forward, true
}

// issue is the wakeup/select stage: one pass of per-cycle selection
// over the SoA scheduler core. The requests are the wake calendar's
// pending set, ordered by the select policy with TrailingZeros64 age
// scans, and granted under the same structural checks as before — no
// per-entry compare, no candidate slices, no sort.
func (s *Simulator) issue(c int64) {
	s.disabledSlots = s.disabledSlotsNext
	s.disabledSlotsNext = 0
	if c == s.issueBlockedCycle {
		return // tag-elimination detection shadow flushes this select cycle
	}
	slots := s.cfg.Width - s.disabledSlots
	if slots <= 0 {
		return
	}

	// Wakeup gather: the entries whose wake cycle has arrived. The
	// producer-timing work already happened event-wise in
	// schedBroadcast, which filed each entry under its wake cycle.
	sc := s.sched
	req := sc.gather(c)

	// Select order: age scans over the request bitmap. Loads/branches
	// first splits the requests with the priority-class bitmap; the
	// positional tree is the age list read from a cycle-rotated start.
	sc.order = sc.order[:0]
	switch s.cfg.Select {
	case SelectOldestFirst, SelectPositional:
		sc.order = sc.appendAge(sc.order, req)
	default: // SelectLoadBranchFirst
		for w := 0; w < sc.words; w++ {
			sc.scratchW[w] = req[w] & sc.prioW[w]
		}
		sc.order = sc.appendAge(sc.order, sc.scratchW)
		for w := 0; w < sc.words; w++ {
			sc.scratchW[w] = req[w] &^ sc.prioW[w]
		}
		sc.order = sc.appendAge(sc.order, sc.scratchW)
	}
	nReq := len(sc.order)
	if nReq == 0 {
		return
	}
	cands := sc.order
	if s.cfg.Select == SelectPositional {
		rot := int(c) % nReq
		sc.order = append(sc.order, sc.order[:rot]...) // order has room for two windows
		cands = sc.order[rot:]
	}

	fu := s.newFUState(c)
	crossbarPorts := s.cfg.Width // RFHalfCrossbar: total read ports per cycle
	issued := 0
	s.issuedBuf = s.issuedBuf[:0]

	for _, slot := range cands {
		u := sc.ent[slot]
		if issued >= slots {
			break
		}
		// Register-port arbitration for the crossbar scheme: bypassed
		// operands need no port; everything else reads the file.
		portNeed := 0
		if s.cfg.Regfile == RFHalfCrossbar {
			for i := 0; i < u.nsrc; i++ {
				if !(u.src[i] != nil && u.src[i].resultAvail() == c) {
					portNeed++
				}
			}
			// The first grant of a cycle always goes through even if it
			// wants more ports than the per-cycle budget (a 1-wide
			// machine's crossbar spends the whole cycle on it);
			// otherwise losers retry next cycle.
			if portNeed > crossbarPorts && issued > 0 {
				s.st.CrossbarDeferrals++
				continue
			}
		}
		if s.bypassConflict(u, c) {
			// Half-price bypass: only one bypass receiver per consumer;
			// wait a cycle so one value comes from the register file.
			s.st.BypassConflicts++
			continue
		}
		var forward bool
		if u.isLoad() {
			var ok bool
			forward, ok = s.lsqReadyForLoad(u, c)
			if !ok {
				continue
			}
		}
		lat := s.cfg.latency(u.class)
		if !s.take(&fu, u.class, c, lat) {
			continue
		}
		issued++
		if s.cfg.Regfile == RFHalfCrossbar {
			crossbarPorts -= portNeed
		}

		// Tag elimination scoreboard check: the unwatched operand must
		// actually be ready, or this issue is a fault.
		if s.cfg.Wakeup == WakeupTagElim && u.nsrc == 2 && !u.teScoreboard {
			other := 1 - sideIndex(u.fastSide)
			if u.srcAvail(other) > c {
				s.tagElimFault(u, c, s.issuedBuf)
				return // selection aborted; shadow flushes the next cycle
			}
		}

		s.issueOne(u, c, lat, forward)
		s.issuedBuf = append(s.issuedBuf, u)
	}
}

// issueOne commits the selection of u at cycle c.
func (s *Simulator) issueOne(u *uop, c int64, lat int, forward bool) {
	// Sequential wakeup statistics: did the slow bus delay this issue?
	if s.cfg.Wakeup == WakeupSequential && u.nsrc == 2 {
		base := int64(0)
		eff := int64(0)
		for i := 0; i < u.nsrc; i++ {
			if a := u.srcAvail(i); a > base {
				base = a
			}
			if a := s.effSrcAvail(u, i); a > eff {
				eff = a
			}
		}
		if eff > base && c == eff {
			s.st.SeqWakeupDelays++
			if s.hot != nil {
				s.hot.note(u.pc, u.inst, s.hot.slowBus)
			}
		}
	}

	// Sequential register access detection (paper Figure 11): an
	// instruction with two unique register sources needs two port reads
	// unless a now-bit shows one value arriving on the bypass. Combined
	// with sequential wakeup, only the fast side has a now-bit.
	extra := 0
	if s.cfg.Regfile == RFSequential && u.nsrc == 2 {
		now := false
		switch s.cfg.Wakeup {
		case WakeupSequential, WakeupTagElim:
			i := sideIndex(u.fastSide)
			now = u.src[i] != nil && u.src[i].resultAvail() == c
		default:
			for i := 0; i < u.nsrc; i++ {
				if u.src[i] != nil && u.src[i].resultAvail() == c {
					now = true
					break
				}
			}
		}
		if !now {
			u.seqRegAccess = true
			s.st.SeqRegAccesses++
			if s.hot != nil {
				s.hot.note(u.pc, u.inst, s.hot.seqRF)
			}
			s.disabledSlotsNext++ // the slot's select logic idles a cycle
			extra = 1
		} else {
			u.seqRegAccess = false
		}
	}

	u.state = stateIssued
	u.issueCycle = c
	s.st.Issued++
	s.trace(c, EvIssue, u.seq, u.inst)

	switch {
	case u.isLoad():
		assumed := int64(1 + s.cfg.Mem.DL1.Lat + extra) // agen + DL1 hit
		var actual int64
		switch {
		case forward:
			u.forwarded = true
			actual = assumed
			u.missed = false
		case !u.memAccessDone:
			latency, hit := s.hier.LoadLatency(u.effAddr)
			u.memAccessDone = true
			u.memDataAt = c + int64(1+latency)
			actual = int64(1+latency) + int64(extra)
			u.missed = !hit
		default:
			// Replayed load: its first access's miss is still in flight.
			actual = assumed
			if u.memDataAt > c+assumed {
				actual = u.memDataAt - c
			}
			u.missed = actual > assumed
		}
		u.resultCycle = c + assumed
		u.actualResultCycle = c + actual
		u.verifyCycle = c + assumed
		if s.cfg.Regfile == RFExtraStage {
			u.verifyCycle++
		}
		s.specLoads = append(s.specLoads, u)
	case u.isStore():
		u.resultCycle = c + 1 + int64(extra)
		u.addrKnownCycle = c + 1
	default:
		u.resultCycle = c + int64(lat+extra)
	}
	s.sched.markIssued(u.slot, c, u.completeCycle())
	// The result tag is on the bus: wake the listening consumers.
	s.schedBroadcast(u)
}

// tagElimFault handles a tag-elimination scoreboard fault: the faulting
// instruction is pulled back into scoreboard-gated mode, every younger
// instruction issued this cycle is squashed, and the next select cycle is
// flushed (non-selective recovery with a one-cycle detection delay).
func (s *Simulator) tagElimFault(u *uop, c int64, issuedThisCycle []*uop) {
	s.st.TagElimMispreds++
	s.trace(c, EvTEFault, u.seq, u.inst)
	u.teScoreboard = true
	// Scoreboard-gated mode watches all operands, not just the fast
	// side: the entry's wake cycle changes rule.
	s.schedRecompute(u.slot)
	for _, v := range issuedThisCycle {
		if v.seq > u.seq {
			s.squash(v, true)
		}
	}
	s.issueBlockedCycle = c + 1
}

// squash pulls an issued (or completed but uncommitted) uop back into the
// issue queue to be rescheduled.
func (s *Simulator) squash(u *uop, tagElim bool) {
	if u.state != stateIssued && u.state != stateDone {
		return
	}
	u.state = stateWaiting
	u.seqRegAccess = false
	s.sched.clearIssued(u.slot)
	// Its producers may have changed while it was in flight, and its own
	// result tag is off the bus again: refresh it, then its listeners.
	s.schedRecompute(u.slot)
	s.schedBroadcast(u)
	s.trace(s.cycle, EvSquash, u.seq, u.inst)
	if s.hot != nil {
		s.hot.note(u.pc, u.inst, s.hot.squashes)
	}
	if u.isStore() {
		u.addrKnownCycle = notReady
	}
	if u.isLoad() {
		// Drop from the verification list; it re-registers on re-issue.
		for i, v := range s.specLoads {
			if v == u {
				s.specLoads = append(s.specLoads[:i], s.specLoads[i+1:]...)
				break
			}
		}
	}
	if tagElim {
		s.st.TagElimSquashes++
	} else {
		s.st.ReplaySquashes++
	}
}

// verifyLoads resolves speculatively scheduled loads whose hit/miss is
// known at cycle c; misses trigger scheduling recovery.
func (s *Simulator) verifyLoads(c int64) {
	remaining := s.specLoads[:0]
	missed := s.missedBuf[:0]
	for _, u := range s.specLoads {
		if u.verifyCycle > c {
			remaining = append(remaining, u)
			continue
		}
		if u.missed {
			// The load's tag rebroadcasts when data truly arrives.
			u.resultCycle = u.actualResultCycle
			s.schedBroadcast(u)
			missed = append(missed, u)
		}
	}
	s.specLoads = remaining
	s.missedBuf = missed
	for _, u := range missed {
		s.recoverFrom(u, c)
	}
}

// recoverFrom replays instructions issued in the missing load's shadow:
// the two select cycles that could have consumed its speculative wakeup
// (the Alpha 21264 mini-restart window). Non-selective recovery squashes
// everything issued there, dependent or not; selective recovery (kill-bus
// matrices, Figure 5) squashes only the load's dependents.
func (s *Simulator) recoverFrom(load *uop, c int64) {
	selective := s.cfg.Recovery == RecoverySelective
	// The squashed set as a slot bitmap: in-flight entries map one-to-one
	// onto window slots, and a committed producer (whose slot may already
	// be reused) can never be in the set, so membership is the slot bit
	// guarded by the producer still being in flight.
	sc := s.sched
	clear(sc.squashW)
	w, m := bit(load.slot)
	sc.squashW[w] |= m
	// Only entries issued in the shadow's cycles can be replayed: walk
	// their issued-at rows in age order.
	sc.order = sc.appendAge(sc.order[:0], sc.shadow(c))
	for _, slot := range sc.order {
		u := sc.ent[slot]
		if u == load || (u.state != stateIssued && u.state != stateDone) {
			continue
		}
		if u.issueCycle <= c-2 || u.issueCycle > c || u.issueCycle <= load.issueCycle {
			continue
		}
		if selective {
			dep := false
			for i := 0; i < u.nsrc; i++ {
				p := u.src[i]
				if p == nil || p.state == stateCommitted {
					continue
				}
				if pw, pm := bit(p.slot); sc.squashW[pw]&pm != 0 {
					dep = true
					break
				}
			}
			if !dep {
				continue
			}
			uw, um := bit(u.slot)
			sc.squashW[uw] |= um
		}
		s.squash(u, false)
	}
}
