package isa

// OperandClass places a dynamic instruction in the taxonomy of the paper's
// Section 2.3 (Figures 2 and 3). The funnel narrows from "has a 2-source
// format" to "actually depends on two unique non-zero registers"; only the
// final category (Class2Source) is a half-price target.
type OperandClass uint8

const (
	// ClassStoreInst: stores are kept in their own category. The store's
	// cache access is scheduled at commit and the core splits it into an
	// address generation and a data move, neither of which needs two
	// simultaneous sources (HPA64, like Alpha, has no MEM[reg+reg] mode).
	ClassStoreInst OperandClass = iota
	// ClassOther: instructions whose format has fewer than two register
	// source fields (loads, immediates, branches, jumps, ...).
	ClassOther
	// ClassNop2Src: 2-source-format nops (write a zero register); the
	// decoder eliminates them without execution.
	ClassNop2Src
	// ClassZeroReg: 2-source format but at least one field is r31/f31,
	// so at most one real dependence (e.g. add r1 <- r2, r31).
	ClassZeroReg
	// ClassIdentical: 2-source format with both fields naming the same
	// register (e.g. add r1 <- r2, r2): one unique dependence.
	ClassIdentical
	// Class2Source: two unique, non-zero source operands. These are the
	// "2-source instructions" all later analysis targets.
	Class2Source
)

// String names the class using the paper's vocabulary.
func (c OperandClass) String() string {
	switch c {
	case ClassStoreInst:
		return "store"
	case ClassOther:
		return "0/1-source format"
	case ClassNop2Src:
		return "2-src-format nop"
	case ClassZeroReg:
		return "zero-register source"
	case ClassIdentical:
		return "identical sources"
	case Class2Source:
		return "2-source"
	}
	return "unknown"
}

// Classify assigns the instruction its operand class.
func Classify(in Inst) OperandClass {
	if in.Op.IsStore() {
		return ClassStoreInst
	}
	f := in.Op.Format()
	if f.NumSrcFields() < 2 {
		return ClassOther
	}
	// 2-source format from here on (FmtR; stores already peeled off).
	if in.IsNop() {
		return ClassNop2Src
	}
	a, b, _ := srcFields(in.Op, in.Rd, in.Ra, in.Rb)
	if a.IsZero() || b.IsZero() {
		return ClassZeroReg
	}
	if a == b {
		return ClassIdentical
	}
	return Class2Source
}
