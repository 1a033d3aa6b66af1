package uarch

// The paper's §6 sketches extending the half-price idea beyond the
// scheduler and register file: "We are developing half-price techniques
// for register renaming, ready information check and bypass logic." This
// file implements those extensions as additional configuration knobs so
// the repository can run the ablations the paper only gestures at.

// RenameScheme selects the register-rename port organisation.
type RenameScheme uint8

const (
	// RenameFull is the baseline: two source-rename (map-table read)
	// ports per pipeline slot, so any mix of instructions renames at
	// full width.
	RenameFull RenameScheme = iota
	// RenameHalfPorts provisions one source-rename port per slot, with
	// one spare shared port per cycle. A dispatch group whose
	// instructions need more source lookups than ports stalls the
	// remainder to the next cycle — the rename-stage analogue of
	// sequential register access.
	RenameHalfPorts
)

// String names the scheme.
func (r RenameScheme) String() string {
	if r == RenameHalfPorts {
		return "half-rename"
	}
	return "full-rename"
}

// BypassScheme selects the operand-bypass network organisation.
type BypassScheme uint8

const (
	// BypassFull is the baseline: every functional-unit input port has a
	// bypass receiver, so an instruction can capture two values off the
	// network in the same cycle.
	BypassFull BypassScheme = iota
	// BypassHalf provisions one bypass receiver per consumer: an
	// instruction whose two operands would both arrive on the bypass in
	// its issue cycle must instead issue one cycle later (taking one
	// value from the written-back register file) — the bypass analogue
	// of sequential wakeup's single fast comparator.
	BypassHalf
)

// String names the scheme.
func (b BypassScheme) String() string {
	if b == BypassHalf {
		return "half-bypass"
	}
	return "full-bypass"
}

// bypassConflict reports whether issuing u at cycle c would require two
// bypass captures in the same cycle under the half-bypass network.
func (s *Simulator) bypassConflict(u *uop, c int64) bool {
	if s.cfg.Bypass != BypassHalf || u.nsrc < 2 {
		return false
	}
	captures := 0
	for i := 0; i < u.nsrc; i++ {
		if u.src[i] != nil && u.src[i].resultAvail() == c {
			captures++
		}
	}
	return captures >= 2
}
