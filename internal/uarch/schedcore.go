package uarch

import "math/bits"

// calHorizon is how far ahead, in cycles, the wake and completion
// calendars file an entry by its cycle. It is a power of two past the
// longest Table 1 wait, a DL1+L2+memory miss of 2+8+50 cycles; an entry
// due further out waits in an overflow set until it comes within reach.
const calHorizon = 64

// issuedAtRows is the depth of the issued-at ring: one row per cycle,
// of which replay recovery reads the last two.
const issuedAtRows = 4

func calRow(t int64) int      { return int(t & (calHorizon - 1)) }
func issuedAtRow(t int64) int { return int(t & (issuedAtRows - 1)) }

// This file is the structure-of-arrays issue-queue core: the data layout
// behind the wakeup/select stage in sched.go. Per-entry scheduler state
// lives in flat arrays indexed by a stable window slot, with the entry
// sets (occupied, issued, priority class, requesting issue) packed one
// bit per entry into []uint64 bitmaps — one word per 64 window entries.
// Wakeup becomes a masked broadcast over a producer's listener bitmap
// that files each re-timed consumer in a wake calendar under its wake
// cycle; the per-cycle gather ORs the rows whose cycle has arrived into
// the requesting set, and age-ordered select is a bits.TrailingZeros64
// scan — no per-cycle compare over the window, no per-cycle allocation,
// no sort.Slice. A completion calendar and per-cycle issued-at rows do
// the same for completion and replay recovery. PERF.md documents the
// layout, the bitmap invariants and the select algorithm; the refactor
// from the slice-and-sort scheduler was gated on bit-identical Stats by
// TestSchedCoreEquivalence (sched_equiv_test.go), which still runs the
// old algorithm from a test-only reference implementation.
//
// Slot discipline: slots are assigned round-robin at dispatch and the
// window retires strictly in order (commit removes only the head), so
// the in-flight entries always occupy the contiguous ring segment
// [head, head+n) mod cap and a slot is never reused while its occupant
// is in flight. Age order is therefore ring order starting at head,
// which is what appendAge scans, and the ring doubles as the reorder
// buffer: commit and the CPI-stack classifier walk it with at. Squash
// does NOT free a slot — a squashed entry stays at its slot and merely
// goes back to waiting.
type schedCore struct {
	cap   int // window entries (Config.WindowSize)
	words int // bitmap words: ceil(cap/64)
	head  int // slot of the oldest in-flight entry
	next  int // slot the next dispatched entry takes
	n     int // in-flight entries

	// Per-entry columns (SoA): the occupant and its wake cycle — the
	// earliest cycle it may request issue, maintained event-wise by
	// schedRecompute/schedBroadcast (sched.go) instead of being
	// re-derived from producer pointers every cycle. The wake cycle
	// records where the slot is filed in the wake calendar: it is
	// notReady for a slot filed nowhere, which every entry that is not
	// waiting is.
	ent       []*uop
	wakeCycle []int64

	// Entry-set bitmaps. Bit i of word i/64 is window slot i.
	//
	//	validW   — slot occupied (insert sets, removeHead clears)
	//	issuedW  — occupant in stateIssued (markIssued sets,
	//	           clearIssued clears)
	//	prioW    — occupant is a load or branch (the select stage's high
	//	           priority class; constant from insert to removeHead)
	//	scratchW — scratch for the select split, dueAt and shadow
	//	squashW  — scratch: recovery's squashed-producer set (recoverFrom)
	validW, issuedW, prioW []uint64
	scratchW, squashW      []uint64

	// The wake calendar files every waiting entry with a finite wake
	// cycle w in exactly one place, relative to folded, the last cycle
	// gather folded in:
	//
	//	pendW    — w <= folded: the entry requests issue
	//	wakeCal  — folded < w <= folded+calHorizon: row calRow(w), one
	//	           bitmap per cycle
	//	wakeOvfW — w further out; wakeOvfMin bounds their w from below
	//
	// setWake files a slot, unfile takes it out, and gather moves rows
	// into pendW and overflow entries into rows as cycles pass.
	folded     int64
	pendW      []uint64
	wakeCal    []uint64
	wakeOvfW   []uint64
	wakeOvfMin int64

	// The completion calendar files each issued entry under its
	// completion cycle d, later than its issue cycle: row calRow(d) of
	// doneCal when d is within calHorizon, else doneOvfW (doneOvfMin
	// bounds their d from below). A squash leaves the entry's bit
	// behind; dueAt masks it with issuedW, and complete checks d.
	doneCal    []uint64
	doneOvfW   []uint64
	doneOvfMin int64

	// issuedAt holds one row per cycle t, at issuedAtRow(t): the slots
	// issued at t. clearIssuedAt empties a cycle's row before anything
	// issues in it; squashed entries leave their bits behind.
	issuedAt []uint64

	// srcMatch is the wakeup CAM's bitmap equivalent: for producer slot
	// p, srcMatch[p*words:(p+1)*words] holds one bit per listening
	// consumer slot. A bit may go stale when its listener leaves the
	// window or its producer retires — broadcasts tolerate that by
	// recomputing (idempotently) whatever currently occupies the slot —
	// and the row is zeroed when slot p is reassigned.
	srcMatch []uint64

	// bitmaps backs every bitmap above, so a reset allocates it once.
	bitmaps []uint64

	// order is the scratch slot list of the select stage, completion
	// and recovery; reused across cycles, never reallocated after
	// warmup. It has room for two windows, so select can rotate it by
	// appending.
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
	const singleRows = 8 // the one-row bitmaps carved below
	b := reuse(sc.bitmaps, (singleRows+2*calHorizon+issuedAtRows+cap)*words)
	*sc = schedCore{
		cap:        cap,
		words:      words,
		ent:        reuse(sc.ent, cap),
		wakeCycle:  reuse(sc.wakeCycle, cap),
		folded:     -1,
		wakeOvfMin: notReady,
		doneOvfMin: notReady,
		bitmaps:    b,
		order:      reuse(sc.order, 2*cap)[:0],
	}
	for i := range sc.wakeCycle {
		sc.wakeCycle[i] = notReady // filed nowhere
	}
	rows := func(n int) []uint64 {
		r := b[: n*words : n*words]
		b = b[n*words:]
		return r
	}
	sc.validW = rows(1)
	sc.issuedW = rows(1)
	sc.prioW = rows(1)
	sc.scratchW = rows(1)
	sc.squashW = rows(1)
	sc.pendW = rows(1)
	sc.wakeOvfW = rows(1)
	sc.doneOvfW = rows(1)
	sc.wakeCal = rows(calHorizon)
	sc.doneCal = rows(calHorizon)
	sc.issuedAt = rows(issuedAtRows)
	sc.srcMatch = rows(cap)
}

func bit(slot int32) (word int, mask uint64) {
	return int(slot >> 6), 1 << uint(slot&63)
}

// insert assigns the next ring slot to a freshly dispatched entry. The
// caller (schedInsert) registers its producer listeners and files it in
// the wake calendar.
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
	sc.unfile(u.slot)
	w, m := bit(u.slot)
	sc.validW[w] &^= m
	sc.issuedW[w] &^= m
	sc.prioW[w] &^= m
	sc.n--
	if sc.head++; sc.head == sc.cap {
		sc.head = 0
	}
}

// markIssued moves an entry issued at cycle c out of the wake calendar
// and into the issued set and cycle c's issued-at row, and files it in
// the completion calendar under done, its completion cycle (later than
// c).
func (sc *schedCore) markIssued(slot int32, c, done int64) {
	sc.unfile(slot)
	w, m := bit(slot)
	sc.issuedW[w] |= m
	sc.issuedAt[issuedAtRow(c)*sc.words+w] |= m
	if done-c <= calHorizon {
		sc.doneCal[calRow(done)*sc.words+w] |= m
	} else {
		sc.doneOvfW[w] |= m
		sc.doneOvfMin = min(sc.doneOvfMin, done)
	}
}

// clearIssued takes an entry out of the issued set: it completed (it
// stays valid until retirement, and a replay squash can still pull it
// back), or a squash sent it back to waiting, and the caller files it
// in the wake calendar again.
func (sc *schedCore) clearIssued(slot int32) {
	w, m := bit(slot)
	sc.issuedW[w] &^= m
}

// setWake records a waiting entry's wake cycle and files its slot in the
// wake calendar, taking it from wherever it was filed before. Most
// broadcasts leave a consumer's wake cycle as it was, and then nothing
// moves.
func (sc *schedCore) setWake(slot int32, wake int64) {
	if sc.wakeCycle[slot] == wake {
		return
	}
	sc.unfile(slot)
	sc.wakeCycle[slot] = wake
	sc.fileWake(slot, wake)
}

// fileWake files slot under wake: in the pending set if that cycle has
// been folded in, in its calendar row if it is within reach, and in the
// overflow set if it is further out. An entry that waits on a producer
// not yet issued (wake notReady) is filed nowhere until it is re-timed.
func (sc *schedCore) fileWake(slot int32, wake int64) {
	w, m := bit(slot)
	switch {
	case wake <= sc.folded:
		sc.pendW[w] |= m
	case wake-sc.folded <= calHorizon:
		sc.wakeCal[calRow(wake)*sc.words+w] |= m
	case wake < notReady:
		sc.wakeOvfW[w] |= m
		sc.wakeOvfMin = min(sc.wakeOvfMin, wake)
	}
}

// unfile takes slot out of the wake calendar and records it as filed
// nowhere. A slot is filed in at most one place, under wakeCycle[slot],
// and no other slot shares its bit, so clearing the bit everywhere it
// could be is exact.
func (sc *schedCore) unfile(slot int32) {
	wake := sc.wakeCycle[slot]
	if wake == notReady {
		return
	}
	sc.wakeCycle[slot] = notReady
	w, m := bit(slot)
	sc.pendW[w] &^= m
	sc.wakeOvfW[w] &^= m
	sc.wakeCal[calRow(wake)*sc.words+w] &^= m
}

// gather folds every wake-calendar row whose cycle has arrived into the
// pending set and returns that set: the slots requesting issue at c. It
// folds more than one row when an earlier cycle returned before its
// gather. Overflow entries that have come within reach move into rows.
func (sc *schedCore) gather(c int64) []uint64 {
	for t := max(sc.folded+1, c-calHorizon+1); t <= c; t++ {
		row := sc.wakeCal[calRow(t)*sc.words:][:sc.words]
		for w, m := range row {
			sc.pendW[w] |= m
		}
		clear(row)
	}
	sc.folded = c
	if sc.wakeOvfMin-c <= calHorizon {
		sc.wakeOvfMin = notReady
		for w, m := range sc.wakeOvfW {
			for m != 0 {
				b := m & -m
				m &= m - 1
				slot := int32(w<<6 + bits.TrailingZeros64(b))
				if wake := sc.wakeCycle[slot]; wake-c > calHorizon {
					sc.wakeOvfMin = min(sc.wakeOvfMin, wake)
				} else {
					sc.wakeOvfW[w] &^= b
					sc.fileWake(slot, wake)
				}
			}
		}
	}
	return sc.pendW
}

// dueAt returns, in a scratch bitmap, the issued slots filed to complete
// at c, and empties c's completion-calendar row. Overflow entries that
// have come within reach move into rows first. A slot in the result may
// hold an entry squashed and issued again since it was filed: the
// caller checks its completion cycle.
func (sc *schedCore) dueAt(c int64) []uint64 {
	if sc.doneOvfMin-c < calHorizon {
		sc.doneOvfMin = notReady
		for w, m := range sc.doneOvfW {
			for m != 0 {
				b := m & -m
				m &= m - 1
				if sc.issuedW[w]&b == 0 {
					sc.doneOvfW[w] &^= b // squashed or done since
					continue
				}
				if done := sc.ent[w<<6+bits.TrailingZeros64(b)].completeCycle(); done-c >= calHorizon {
					sc.doneOvfMin = min(sc.doneOvfMin, done)
				} else {
					sc.doneOvfW[w] &^= b
					sc.doneCal[calRow(done)*sc.words+w] |= b
				}
			}
		}
	}
	row := sc.doneCal[calRow(c)*sc.words:][:sc.words]
	for w, m := range row {
		sc.scratchW[w] = m & sc.issuedW[w]
	}
	clear(row)
	return sc.scratchW
}

// clearIssuedAt empties cycle c's issued-at row, before anything issues
// at c.
func (sc *schedCore) clearIssuedAt(c int64) {
	clear(sc.issuedAt[issuedAtRow(c)*sc.words:][:sc.words])
}

// shadow returns, in a scratch bitmap, the slots issued at c-1 or c: the
// two select cycles in the replay shadow of a load verified at c. Squashed
// entries leave their bits behind, so the caller checks each entry.
func (sc *schedCore) shadow(c int64) []uint64 {
	prev := sc.issuedAt[issuedAtRow(c-1)*sc.words:]
	cur := sc.issuedAt[issuedAtRow(c)*sc.words:]
	for w := range sc.scratchW {
		sc.scratchW[w] = prev[w] | cur[w]
	}
	return sc.scratchW
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
