package uarch

import (
	"math/rand"
	"reflect"
	"testing"

	"halfprice/internal/isa"
	"halfprice/internal/trace"
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

// TestSchedCoreStateBitmaps checks the pending/issued transitions and
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
	aw, am := bit(a.slot)
	sc.setWake(a.slot, 1)
	if sc.gather(1)[aw]&am == 0 {
		t.Fatal("gather did not fold a's wake cycle into the pending set")
	}
	sc.markIssued(a.slot, 1, 2)
	if sc.pendW[aw]&am != 0 || sc.issuedW[aw]&am == 0 {
		t.Fatal("markIssued did not move a from pending to issued")
	}
	sc.clearIssued(a.slot) // squash
	sc.setWake(a.slot, 1)
	if sc.pendW[aw]&am == 0 || sc.issuedW[aw]&am != 0 {
		t.Fatal("clearIssued and setWake did not move a back")
	}
	sc.markIssued(a.slot, 1, 2)
	sc.clearIssued(a.slot) // completion
	if sc.issuedW[aw]&am != 0 {
		t.Fatal("clearIssued left a in the issued set")
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

// randomWake draws a wake cycle around cycle c: already passed, within
// the calendar's reach (its edges included), past it into the overflow
// set, or unknown.
func randomWake(r *rand.Rand, c int64) int64 {
	switch r.Intn(6) {
	case 0:
		return c - int64(r.Intn(4))
	case 1:
		return c + 1 + int64(r.Intn(calHorizon))
	case 2:
		return c + calHorizon + int64(r.Intn(3)) - 1
	case 3:
		return c + calHorizon + 1 + int64(r.Intn(3*calHorizon))
	case 4:
		return notReady
	}
	return c + 1 + int64(r.Intn(8))
}

// TestWakeCalendarMatchesModel drives the wake calendar through filing,
// refiling and unfiling, across many wraps of its rows and through the
// overflow set, and checks every gather against a brute-force model:
// the requests at c are exactly the waiting entries whose wake cycle is
// at most c. Gathers are skipped for runs of cycles, as issue skips them
// in a tag-elimination shadow or with no free slot, and now and then for
// longer than the calendar's reach, so one gather must fold every row
// whose cycle passed since the last.
func TestWakeCalendarMatchesModel(t *testing.T) {
	const cap = 130 // three bitmap words, the last one partial
	r := rand.New(rand.NewSource(7))
	sc := newSchedCore(cap)
	type entry struct {
		u       *uop
		waiting bool
		done    bool
		wake    int64
	}
	var live []*entry // age order
	pick := func(f func(*entry) bool) *entry {
		var cands []*entry
		for _, e := range live {
			if f(e) {
				cands = append(cands, e)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[r.Intn(len(cands))]
	}
	waiting := func(e *entry) bool { return e.waiting }
	issued := func(e *entry) bool { return !e.waiting && !e.done }
	gap, maxGap := 0, 0 // cycles left until the next gather, longest run
	for c := int64(0); c < 3000; c++ {
		for k := r.Intn(4); k > 0 && sc.n < cap; k-- { // dispatch
			e := &entry{u: &uop{}, waiting: true, wake: randomWake(r, c)}
			sc.insert(e.u)
			sc.setWake(e.u.slot, e.wake)
			live = append(live, e)
		}
		for k := r.Intn(6); k > 0; k-- { // a producer re-times a consumer
			if e := pick(waiting); e != nil {
				e.wake = randomWake(r, c)
				sc.setWake(e.u.slot, e.wake)
			}
		}
		if e := pick(issued); e != nil && r.Intn(3) == 0 { // squash
			e.waiting, e.wake = true, randomWake(r, c)
			sc.clearIssued(e.u.slot)
			sc.setWake(e.u.slot, e.wake)
		}
		if e := pick(issued); e != nil && r.Intn(2) == 0 {
			e.done = true
			sc.clearIssued(e.u.slot)
		}
		for len(live) > 0 && live[0].done && r.Intn(4) != 0 { // commit
			sc.removeHead(live[0].u)
			live = live[1:]
		}
		if gap > 0 { // issue returns before its gather
			gap--
			continue
		}
		switch n := r.Intn(100); {
		case n < 2:
			gap = calHorizon + r.Intn(16)
		case n < 35:
			gap = 1 + r.Intn(4)
		}
		maxGap = max(maxGap, gap)
		var want []int32
		for _, e := range live {
			if e.waiting && e.wake <= c {
				want = append(want, e.u.slot)
			}
		}
		got := slotsOf(sc, sc.gather(c))
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: requests %v, want %v", c, got, want)
		}
		for _, slot := range got { // grant some requests
			if r.Intn(2) == 0 {
				for _, e := range live {
					if e.u.slot == slot {
						e.waiting = false
						sc.markIssued(slot, c, c+1)
					}
				}
			}
		}
	}
	if maxGap <= calHorizon {
		t.Fatalf("longest run of skipped gathers %d; the test must fold past the calendar's reach", maxGap)
	}
}

// TestCompletionCalendarMatchesModel issues entries with completion
// cycles within and beyond the calendar's reach, squashes and reissues
// some of them, and checks that each cycle's due entries, less the stale
// bits complete skips, are exactly the issued entries completing then.
func TestCompletionCalendarMatchesModel(t *testing.T) {
	const cap = 70
	r := rand.New(rand.NewSource(11))
	sc := newSchedCore(cap)
	var live []*uop // age order; state and resultCycle are the model
	for c := int64(0); c < 3000; c++ {
		var want []int32
		for _, u := range live {
			if u.state == stateIssued && u.resultCycle == c {
				want = append(want, u.slot)
			}
		}
		var got []int32
		for _, slot := range slotsOf(sc, sc.dueAt(c)) {
			if u := sc.ent[slot]; u.completeCycle() == c {
				got = append(got, slot)
				u.state = stateDone
				sc.clearIssued(slot)
			}
		}
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: completing %v, want %v", c, got, want)
		}
		for len(live) > 0 && live[0].state == stateDone {
			sc.removeHead(live[0])
			live = live[1:]
		}
		for k := r.Intn(3); k > 0 && sc.n < cap; k-- {
			u := &uop{decoded: decoded{class: isa.ClassIntALU}}
			sc.insert(u)
			live = append(live, u)
		}
		for _, u := range live {
			switch {
			case u.state == stateWaiting && r.Intn(3) == 0:
				u.state = stateIssued
				u.resultCycle = c + 1 + int64(r.Intn(3*calHorizon))
				if r.Intn(2) == 0 {
					u.resultCycle = c + calHorizon + int64(r.Intn(3)) - 1
				}
				sc.markIssued(u.slot, c, u.resultCycle)
			case u.state != stateWaiting && r.Intn(40) == 0: // replay squash
				u.state = stateWaiting
				sc.clearIssued(u.slot)
			}
		}
	}
}

// TestStoreQueueMatchesLSQScan checks the load-ordering check, which
// walks only the stores older than the load, against a scan of every
// in-flight load and store, while the store ring wraps many times.
func TestStoreQueueMatchesLSQScan(t *testing.T) {
	cfg := Config4Wide()
	cfg.LSQSize = 6
	s := New(cfg, trace.NewSliceStream(nil))
	r := rand.New(rand.NewSource(3))
	var lsq []*uop // in flight, program order
	seq := uint64(0)
	for c := int64(0); c < 5000; c++ {
		if s.lsqLen < cfg.LSQSize && r.Intn(3) != 0 {
			u := &uop{decoded: decoded{seq: seq, class: isa.ClassLoad, effAddr: uint64(r.Intn(6)) * 4}}
			seq++
			u.addrKnownCycle = notReady
			if r.Intn(2) == 0 {
				u.class = isa.ClassStore
			}
			s.pushLSQ(u)
			lsq = append(lsq, u)
		}
		for _, v := range lsq {
			if v.isStore() && v.addrKnownCycle == notReady && r.Intn(4) == 0 {
				v.addrKnownCycle = c + int64(r.Intn(3))
			}
		}
		for _, u := range lsq {
			if !u.isLoad() {
				continue
			}
			wantFwd, wantOK := false, true
			for _, v := range lsq {
				if v.seq >= u.seq || !v.isStore() {
					continue
				}
				if v.addrKnownCycle > c {
					wantFwd, wantOK = false, false
					break
				}
				if v.effAddr&^7 == u.effAddr&^7 {
					wantFwd = true
				}
			}
			if fwd, ok := s.lsqReadyForLoad(u, c); fwd != wantFwd || ok != wantOK {
				t.Fatalf("cycle %d, load seq %d: (forward, ok) = (%v, %v), want (%v, %v)", c, u.seq, fwd, ok, wantFwd, wantOK)
			}
		}
		if len(lsq) > 0 && r.Intn(2) == 0 && (!lsq[0].isStore() || lsq[0].addrKnownCycle <= c) {
			s.popLSQ(lsq[0])
			lsq = lsq[1:]
		}
	}
}
