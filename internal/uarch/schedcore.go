package uarch

import "math/bits"

// This file is the structure-of-arrays issue-queue core: the data layout
// behind the wakeup/select stage in sched.go. Per-entry scheduler state
// lives in flat arrays indexed by a stable window slot, with the
// per-cycle sets (occupied, waiting, issued, priority class, this
// cycle's requests) packed one bit per entry into []uint64 bitmaps — one
// word per 64 window entries. Wakeup becomes a masked broadcast over a
// producer's listener bitmap, eligibility a compare against a cached
// wake cycle, and age-ordered select a bits.TrailingZeros64 scan — no
// per-cycle allocation, no sort.Slice. PERF.md documents the layout, the
// bitmap invariants and the select algorithm; the refactor from the
// slice-and-sort scheduler was gated on bit-identical Stats by
// TestSchedCoreEquivalence (sched_equiv_test.go), which still runs the
// old algorithm from a test-only reference implementation.
//
// Slot discipline: slots are assigned round-robin at dispatch and the
// window retires strictly in order (commit removes only the head), so
// the in-flight entries always occupy the contiguous ring segment
// [head, head+n) mod cap and a slot is never reused while its occupant
// is in flight. Age order is therefore ring order starting at head,
// which is what appendAge scans, and the ring doubles as the reorder
// buffer: commit, the CPI-stack classifier and replay recovery walk it
// with at. Squash does NOT free a slot — a squashed entry stays at its
// slot and merely moves back to the waiting set.
type schedCore struct {
	cap   int // window entries (Config.WindowSize)
	words int // bitmap words: ceil(cap/64)
	head  int // slot of the oldest in-flight entry
	next  int // slot the next dispatched entry takes
	n     int // in-flight entries

	// Per-entry columns (SoA): the occupant and its cached wake cycle —
	// the earliest cycle it may request issue, maintained event-wise by
	// schedRecompute/schedBroadcast (sched.go) instead of being
	// re-derived from producer pointers every cycle.
	ent       []*uop
	wakeCycle []int64

	// Entry-set bitmaps. Bit i of word i/64 is window slot i.
	//
	//	validW  — slot occupied (insert sets, removeHead clears)
	//	waitW   — occupant in stateWaiting (insert/markWaiting set,
	//	          markIssued clears)
	//	issuedW — occupant in stateIssued (markIssued sets, markDone and
	//	          markWaiting clear)
	//	prioW   — occupant is a load or branch (the select stage's high
	//	          priority class; constant from insert to removeHead)
	//	reqW    — scratch: this cycle's issue requests
	//	          (waitW ∧ wakeCycle ≤ now), rebuilt by issue()
	//	squashW — scratch: recovery's squashed-producer set (recoverFrom)
	validW, waitW, issuedW, prioW []uint64
	reqW, scratchW, squashW       []uint64

	// srcMatch is the wakeup CAM's bitmap equivalent: for producer slot
	// p, srcMatch[p*words:(p+1)*words] holds one bit per listening
	// consumer slot. A bit may go stale when its listener leaves the
	// window or its producer retires — broadcasts tolerate that by
	// recomputing (idempotently) whatever currently occupies the slot —
	// and the row is zeroed when slot p is reassigned.
	srcMatch []uint64

	// order is the select stage's scratch candidate list (slots in
	// selection order); reused across cycles, never reallocated after
	// warmup.
	order []int32
}

func newSchedCore(cap int) *schedCore {
	sc := new(schedCore)
	sc.reset(cap)
	return sc
}

// reset empties the core for a window of cap entries, clearing and
// reusing the storage it already holds.
func (sc *schedCore) reset(cap int) {
	words := (cap + 63) / 64
	*sc = schedCore{
		cap:       cap,
		words:     words,
		ent:       reuse(sc.ent, cap),
		wakeCycle: reuse(sc.wakeCycle, cap),
		validW:    reuse(sc.validW, words),
		waitW:     reuse(sc.waitW, words),
		issuedW:   reuse(sc.issuedW, words),
		prioW:     reuse(sc.prioW, words),
		reqW:      reuse(sc.reqW, words),
		scratchW:  reuse(sc.scratchW, words),
		squashW:   reuse(sc.squashW, words),
		srcMatch:  reuse(sc.srcMatch, cap*words),
		order:     reuse(sc.order, cap)[:0],
	}
}

func bit(slot int32) (word int, mask uint64) {
	return int(slot >> 6), 1 << uint(slot&63)
}

// insert assigns the next ring slot to a freshly dispatched entry and
// files it in the waiting set. The caller (schedInsert) registers its
// producer listeners and computes its wake cycle.
func (sc *schedCore) insert(u *uop) {
	slot := int32(sc.next)
	// The guards call mustf only on failure, as Run's watchdog does:
	// passing the slot to its variadic arguments boxes it on every call.
	if sc.ent[slot] != nil || sc.n >= sc.cap {
		mustf(false, "uarch: scheduler slot %d reused while occupied", slot)
	}
	if sc.next++; sc.next == sc.cap {
		sc.next = 0
	}
	if sc.n == 0 {
		sc.head = int(slot)
	}
	sc.n++
	u.slot = slot
	sc.ent[slot] = u
	// The slot's previous occupant retired; stale listener bits for the
	// old producer must not leak onto the new one.
	row := sc.srcMatch[int(slot)*sc.words:]
	for i := 0; i < sc.words; i++ {
		row[i] = 0
	}
	w, m := bit(slot)
	sc.validW[w] |= m
	sc.waitW[w] |= m
	if u.isLoad() || u.isBranch() {
		sc.prioW[w] |= m
	}
}

// listen registers consumer slot c on producer slot p's wakeup bitmap:
// broadcasts from p will re-evaluate c.
func (sc *schedCore) listen(p, c int32) {
	w, m := bit(c)
	sc.srcMatch[int(p)*sc.words+w] |= m
}

// at returns the i-th oldest in-flight entry (0 is the head).
func (sc *schedCore) at(i int) *uop {
	if i += sc.head; i >= sc.cap {
		i -= sc.cap
	}
	return sc.ent[i]
}

// removeHead retires the oldest entry (commit order), freeing its slot.
func (sc *schedCore) removeHead(u *uop) {
	if int(u.slot) != sc.head || sc.ent[u.slot] != u {
		mustf(false, "uarch: out-of-order scheduler retirement at slot %d", u.slot)
	}
	sc.ent[u.slot] = nil
	w, m := bit(u.slot)
	sc.validW[w] &^= m
	sc.waitW[w] &^= m
	sc.issuedW[w] &^= m
	sc.prioW[w] &^= m
	sc.n--
	if sc.head++; sc.head == sc.cap {
		sc.head = 0
	}
}

// markIssued moves an entry from the waiting to the issued set.
func (sc *schedCore) markIssued(slot int32) {
	w, m := bit(slot)
	sc.waitW[w] &^= m
	sc.issuedW[w] |= m
}

// markWaiting moves a squashed entry back to the waiting set.
func (sc *schedCore) markWaiting(slot int32) {
	w, m := bit(slot)
	sc.issuedW[w] &^= m
	sc.waitW[w] |= m
}

// markDone takes a completed entry out of the issued set (it stays
// valid until retirement; a replay squash can still pull it back).
func (sc *schedCore) markDone(slot int32) {
	w, m := bit(slot)
	sc.issuedW[w] &^= m
}

// appendAge appends the slots of every set bit in bm to dst in age
// order: ring order starting at head. Because in-flight entries occupy
// [head, head+n) mod cap and slots are assigned in dispatch order, that
// is exactly oldest-first. The scan is word-at-a-time with
// bits.TrailingZeros64 — the software shape of a CLZ/CTZ select tree.
func (sc *schedCore) appendAge(dst []int32, bm []uint64) []int32 {
	hw, hb := sc.head>>6, uint(sc.head&63)
	w := bm[hw] &^ (1<<hb - 1) // the head word, entries at or above head
	for i := hw; ; {
		for w != 0 {
			dst = append(dst, int32(i<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
		if i++; i == sc.words {
			i = 0
		}
		if i == hw {
			break
		}
		w = bm[i]
	}
	if hb != 0 { // wrapped segment: the head word's entries below head
		w = bm[hw] & (1<<hb - 1)
		for w != 0 {
			dst = append(dst, int32(hw<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
