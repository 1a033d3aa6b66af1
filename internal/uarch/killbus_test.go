package uarch

import (
	"strings"
	"testing"
	"testing/quick"
)

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
