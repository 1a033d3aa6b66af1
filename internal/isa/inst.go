package isa

import "fmt"

// Inst is one decoded HPA64 instruction. The register fields not used by
// the opcode's format are RegNone. Imm holds the immediate, displacement,
// or branch offset (in instructions, not bytes, for control transfers).
type Inst struct {
	Op  Opcode
	Rd  Reg // destination (RegNone if the format has none)
	Ra  Reg // first source field
	Rb  Reg // second source field
	Imm int64
}

// InstBytes is the size of one encoded instruction in memory. HPA64 uses
// 8-byte instruction words (a simulator convenience; the operand-count
// properties under study are unaffected by encoding density).
const InstBytes = 8

// Nop returns the canonical HPA64 nop: or r31, r31, r31. Like Alpha's
// BIS-based nops it is a 2-source-format instruction that writes the zero
// register, so it lands in Figure 3's "nop" category.
func Nop() Inst { return Inst{Op: OpOR, Rd: ZeroInt, Ra: ZeroInt, Rb: ZeroInt} }

// Dest returns the destination register and whether the instruction
// produces a register result at all. Writes to the zero registers are
// architecturally discarded, so they report no destination.
func (in Inst) Dest() (Reg, bool) {
	if in.Rd == RegNone || in.Rd.IsZero() {
		return RegNone, false
	}
	switch in.Op.Format() {
	case FmtStore, FmtBranch, FmtNone:
		return RegNone, false
	}
	if in.Op == OpPUTC {
		return RegNone, false
	}
	return in.Rd, true
}

// SrcFields returns the register source *fields* of the instruction in
// format order, before any zero-register or duplicate filtering. Stores
// report [data, base] — the paper treats the data register as the "move"
// half of the split store. The second return is the field count (0..2).
func (in Inst) SrcFields() ([2]Reg, int) {
	a, b, n := srcFields(in.Op, in.Rd, in.Ra, in.Rb)
	return [2]Reg{a, b}, n
}

// srcFields is SrcFields over the opcode and register fields, as scalars.
// Srcs and Classify run once per simulated instruction, and use it rather
// than SrcFields: an Inst has too many fields for the compiler to keep in
// registers, and a small array lives in memory, so both would go through
// the stack.
func srcFields(op Opcode, rd, ra, rb Reg) (a, b Reg, n int) {
	switch op.Format() {
	case FmtR:
		return ra, rb, 2
	case FmtStore:
		return rd, ra, 2 // data register, base register
	case FmtI, FmtR1, FmtLoad, FmtBranch, FmtJmp:
		return ra, RegNone, 1
	default:
		return RegNone, RegNone, 0
	}
}

// Srcs returns the registers the instruction actually depends on: source
// fields minus zero registers, with duplicates collapsed, as a then b
// (RegNone when absent). The count n (0..2) is the paper's notion of
// "unique source operands" (Figure 3).
func (in Inst) Srcs() (a, b Reg, n int) {
	a, b, _ = srcFields(in.Op, in.Rd, in.Ra, in.Rb)
	if !b.Valid() || b.IsZero() || b == a {
		b = RegNone // identical sources collapse (e.g. add r1, r2, r2)
	}
	if !a.Valid() || a.IsZero() {
		a, b = b, RegNone
	}
	switch {
	case a == RegNone:
		return a, b, 0
	case b == RegNone:
		return a, b, 1
	}
	return a, b, 2
}

// IsNop reports whether the instruction is an architectural no-op: it has a
// register-writing format but targets a zero register and has no side
// effects. Alpha binaries contain many such 2-source-format nops inserted
// for alignment; the decoder drops them before execution.
func (in Inst) IsNop() bool {
	switch in.Op.Format() {
	case FmtR, FmtI, FmtR1, FmtLI:
		return in.Rd.IsZero() || in.Rd == RegNone
	}
	return false
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op.Format() {
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Ra, in.Rb)
	case FmtI:
		if in.Op == OpPUTC {
			return fmt.Sprintf("%s %s", in.Op, in.Ra)
		}
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Ra, in.Imm)
	case FmtR1:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Ra)
	case FmtLI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case FmtLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Ra)
	case FmtStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Ra)
	case FmtBranch:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Ra, in.Imm)
	case FmtBr:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case FmtJmp:
		return fmt.Sprintf("%s %s, (%s)", in.Op, in.Rd, in.Ra)
	default:
		return in.Op.String()
	}
}
