package uarch

import (
	"halfprice/internal/isa"
	"halfprice/internal/opred"
)

// commit retires up to Width completed instructions in program order.
// Retirement waits until an instruction can no longer be replayed: every
// load issued before it must have verified its hit/miss.
func (s *Simulator) commit(c int64) {
	for n := 0; n < s.cfg.Width && s.sched.n > 0; n++ {
		u := s.sched.at(0)
		if u.state != stateDone {
			return
		}
		if !s.replaySafe(u, c) {
			return
		}
		if u.isStore() {
			// Split store: the cache write happens now, at commit (paper
			// §2.3).
			s.hier.StoreLatency(u.effAddr)
		}
		u.state = stateCommitted
		s.trace(c, EvCommit, u.seq, u.inst)
		s.sched.removeHead(u)
		if u.dest != isa.RegNone && s.regMap[u.dest] == u {
			// The value is architectural now. Its resultCycle precedes
			// any later dispatch, so every consumer check reads nil the
			// same way, and the uops ring may reuse u (Simulator.uops).
			s.regMap[u.dest] = nil
		}
		if u.isLoad() || u.isStore() {
			s.popLSQ(u)
		}
		s.recordCommit(u)
		if s.cfg.MaxInsts > 0 && s.st.Committed+s.st.WarmupDiscarded >= s.cfg.MaxInsts {
			return
		}
	}
}

// classifyCycle buckets a cycle for the CPI stack by its commit outcome.
func (s *Simulator) classifyCycle(committed uint64, c int64) CycleClass {
	switch {
	case committed >= uint64(s.cfg.Width):
		return CycleFullCommit
	case committed > 0:
		return CyclePartialCommit
	case s.sched.n == 0:
		return CycleFrontEnd
	case s.sched.at(0).state != stateDone:
		return CycleExecution
	default:
		return CycleReplayWait
	}
}

// replaySafe reports whether u is beyond every outstanding speculative
// scheduling shadow.
func (s *Simulator) replaySafe(u *uop, c int64) bool {
	for _, l := range s.specLoads {
		if l != u && l.issueCycle < u.issueCycle && l.verifyCycle > c {
			return false
		}
	}
	return true
}

// pushLSQ enters a dispatching load or store u in the LSQ. u records
// the store-queue tail, so that a load's ordering check walks only the
// stores older than it; a store joins the store queue at that tail.
func (s *Simulator) pushLSQ(u *uop) {
	s.lsqLen++
	u.sqTail = s.sqTail
	if u.isStore() {
		s.sq[s.sqTail&(len(s.sq)-1)] = u
		s.sqTail++
	}
}

// popLSQ removes the committing load or store u from the LSQ. Memory
// operations commit in program order, so a store is the oldest in the
// store queue: the head moves past it and no other entry moves.
func (s *Simulator) popLSQ(u *uop) {
	s.lsqLen--
	if !u.isStore() {
		return
	}
	if s.sqHead == s.sqTail || s.sq[s.sqHead&(len(s.sq)-1)] != u {
		mustf(false, "uarch: committing store seq=%d is not the store-queue head", u.seq)
	}
	s.sq[s.sqHead&(len(s.sq)-1)] = nil
	s.sqHead++
}

// recordCommit gathers the per-instruction statistics behind the paper's
// characterisation figures and trains the operand predictor.
func (s *Simulator) recordCommit(u *uop) {
	s.st.Committed++
	if s.hot != nil {
		s.hot.note(u.pc, u.inst, s.hot.commits)
	}
	if s.onCommit != nil {
		s.onCommit(u)
	}
	s.st.ClassCounts[u.opClass]++
	if !u.is2Source() {
		return
	}
	s.st.ReadyAtInsert[u.readyAtInsert]++

	// Final wakeup times of the two operands under base (fast-bus)
	// timing; operands ready at insert never woke.
	wake := func(i int) (int64, bool) {
		if !u.pendingAtInsert[i] {
			return 0, false
		}
		return u.src[i].resultCycle, true
	}
	w0, p0 := wake(0)
	w1, p1 := wake(1)

	// Figure 6 / Table 3 / Figure 7: 2-pending-source instructions.
	if p0 && p1 {
		slack := w0 - w1
		if slack < 0 {
			slack = -slack
		}
		s.st.WakeupSlack.Observe(int(slack))
		switch {
		case w0 == w1:
			if u.hasPred {
				s.st.OpPredSimultaneous++
			}
		default:
			last := opred.Right
			if w0 > w1 {
				last = opred.Left
			}
			if prev, ok := s.lastSidePC[u.pc]; ok {
				if prev == last {
					s.st.OrderSame++
				} else {
					s.st.OrderDiff++
				}
			}
			s.lastSidePC[u.pc] = last
			if last == opred.Left {
				s.st.LastLeft++
			} else {
				s.st.LastRight++
			}
			if u.hasPred {
				if u.predicted == last {
					s.st.OpPredCorrect++
				} else {
					s.st.OpPredIncorrect++
				}
			}
		}
	}

	// Train the predictor with any observable last-arriving tag: for a
	// single pending operand the pending side arrived last by definition.
	var last opred.Side
	train := false
	switch {
	case p0 && p1 && w0 != w1:
		train = true
		if w0 > w1 {
			last = opred.Left
		} else {
			last = opred.Right
		}
	case p0 && !p1:
		train, last = true, opred.Left
	case p1 && !p0:
		train, last = true, opred.Right
	}
	if train && s.cfg.Wakeup != WakeupConventional {
		s.op.Update(u.pc, last)
	}

	// Figure 10: where did the source values come from?
	bypass := false
	for i := 0; i < 2; i++ {
		if u.src[i] != nil && u.issueCycle == u.src[i].resultCycle {
			bypass = true
		}
	}
	switch {
	case bypass:
		s.st.RegBackToBack++
	case u.readyAtInsert == 2:
		s.st.RegTwoReady++
	default:
		s.st.RegNonBackToBack++
	}
}
