package uarch

import (
	"reflect"
	"testing"
)

func slotsOf(sc *schedCore, bm []uint64) []int32 {
	return sc.appendAge(nil, bm)
}

// TestSchedCoreRingDiscipline drives insert/removeHead through several
// wraps of a window smaller than one bitmap word and checks the
// invariants the scheduler relies on: slots assigned round-robin,
// in-flight entries exactly [head, head+n) mod cap, and age order
// (appendAge over validW) equal to insertion order.
func TestSchedCoreRingDiscipline(t *testing.T) {
	const cap = 5
	sc := newSchedCore(cap)
	var live []*uop
	seq := uint64(0)
	insert := func() {
		u := &uop{decoded: decoded{seq: seq}}
		seq++
		sc.insert(u)
		live = append(live, u)
	}
	remove := func() {
		sc.removeHead(live[0])
		live = live[1:]
	}
	check := func() {
		t.Helper()
		if sc.n != len(live) {
			t.Fatalf("n=%d, want %d", sc.n, len(live))
		}
		got := slotsOf(sc, sc.validW)
		want := make([]int32, len(live))
		for i, u := range live {
			want[i] = u.slot
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("age order %v, want insertion order %v (head=%d)", got, want, sc.head)
		}
	}
	// Fill, drain partially, refill across the wrap point, repeatedly.
	for round := 0; round < 4; round++ {
		for len(live) < cap {
			insert()
			check()
		}
		for len(live) > 1 {
			remove()
			check()
		}
	}
	for len(live) > 0 {
		remove()
		check()
	}
}

// TestSchedCoreMultiWordAppendAge checks the age scan across word
// boundaries and the wrapped head-word segment on a >64-entry window.
func TestSchedCoreMultiWordAppendAge(t *testing.T) {
	const cap = 130 // 3 words, last one partial
	sc := newSchedCore(cap)
	ring := make([]*uop, 0, cap)
	// Advance the ring so head lands mid-word: fill and drain 70 entries,
	// then fill the whole window from head=70.
	for i := 0; i < 70; i++ {
		u := &uop{}
		sc.insert(u)
		ring = append(ring, u)
	}
	for _, u := range ring {
		sc.removeHead(u)
	}
	ring = ring[:0]
	for i := 0; i < cap; i++ {
		u := &uop{}
		sc.insert(u)
		ring = append(ring, u)
	}
	if sc.head != 70 {
		t.Fatalf("head=%d, want 70", sc.head)
	}
	got := slotsOf(sc, sc.validW)
	if len(got) != cap {
		t.Fatalf("appendAge returned %d slots, want %d", len(got), cap)
	}
	for i, u := range ring {
		if got[i] != u.slot {
			t.Fatalf("age position %d: slot %d, want %d", i, got[i], u.slot)
		}
	}
	// A sparse subset stays in age order too.
	sub := make([]uint64, sc.words)
	want := []int32{}
	for i, u := range ring {
		if i%7 == 0 {
			w, m := bit(u.slot)
			sub[w] |= m
			want = append(want, u.slot)
		}
	}
	if got := slotsOf(sc, sub); !reflect.DeepEqual(got, want) {
		t.Fatalf("sparse age scan %v, want %v", got, want)
	}
}

// TestSchedCoreStateBitmaps checks the waiting/issued transitions and
// that insert zeroes a reused slot's listener row.
func TestSchedCoreStateBitmaps(t *testing.T) {
	sc := newSchedCore(64)
	a, b := &uop{}, &uop{}
	sc.insert(a)
	sc.insert(b)
	sc.listen(a.slot, b.slot)
	w, m := bit(b.slot)
	if sc.srcMatch[int(a.slot)*sc.words+w]&m == 0 {
		t.Fatal("listen did not set the consumer bit")
	}
	sc.markIssued(a.slot)
	if aw, am := bit(a.slot); sc.waitW[aw]&am != 0 || sc.issuedW[aw]&am == 0 {
		t.Fatal("markIssued did not move a from waiting to issued")
	}
	sc.markWaiting(a.slot)
	if aw, am := bit(a.slot); sc.waitW[aw]&am == 0 || sc.issuedW[aw]&am != 0 {
		t.Fatal("markWaiting did not move a back")
	}
	sc.markIssued(a.slot)
	sc.markDone(a.slot)
	if aw, am := bit(a.slot); sc.issuedW[aw]&am != 0 {
		t.Fatal("markDone left a in the issued set")
	}
	// Retire both; reusing a's slot must clear its stale listener row.
	sc.removeHead(a)
	sc.removeHead(b)
	c := &uop{}
	sc.insert(c)
	if c.slot != 2 {
		t.Fatalf("slot assignment not round-robin: got %d, want 2", c.slot)
	}
	d := &uop{} // takes slot 3... keep inserting until slot 0 is reused
	sc.insert(d)
	for next := 4; next < 64; next++ {
		sc.insert(&uop{})
	}
	head := sc.ent[sc.head]
	sc.removeHead(head) // free slot 2 (head) — window full otherwise
	e := &uop{}
	sc.insert(e)
	if e.slot != 0 {
		t.Fatalf("reused slot %d, want 0 (old a)", e.slot)
	}
	if sc.srcMatch[int(e.slot)*sc.words+w]&m != 0 {
		t.Fatal("reused slot kept the previous occupant's listener row")
	}
}
