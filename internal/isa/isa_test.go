package isa

import (
	"testing"
)

func TestRegBasics(t *testing.T) {
	if !ZeroInt.IsZero() || !ZeroFp.IsZero() {
		t.Fatal("zero registers not recognised")
	}
	if IntReg(5).IsZero() || FpReg(5).IsZero() {
		t.Fatal("non-zero register reported zero")
	}
	if !FpReg(0).IsFp() || IntReg(0).IsFp() {
		t.Fatal("IsFp wrong")
	}
	if RegNone.Valid() {
		t.Fatal("RegNone reported valid")
	}
	if got := IntReg(7).String(); got != "r7" {
		t.Fatalf("String = %q", got)
	}
	if got := FpReg(7).String(); got != "f7" {
		t.Fatalf("String = %q", got)
	}
	if got := RegNone.String(); got != "-" {
		t.Fatalf("RegNone.String = %q", got)
	}
}

func TestRegConstructorsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { IntReg(32) },
		func() { IntReg(-1) },
		func() { FpReg(32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range register did not panic")
				}
			}()
			f()
		}()
	}
}

func TestParseReg(t *testing.T) {
	cases := []struct {
		in   string
		want Reg
		ok   bool
	}{
		{"r0", IntReg(0), true},
		{"r31", ZeroInt, true},
		{"f15", FpReg(15), true},
		{"sp", RegSP, true},
		{"ra", RegRA, true},
		{"zero", ZeroInt, true},
		{"fzero", ZeroFp, true},
		{"r32", RegNone, false},
		{"f32", RegNone, false},
		{"x3", RegNone, false},
		{"r", RegNone, false},
		{"", RegNone, false},
		{"r1a", RegNone, false},
	}
	for _, c := range cases {
		got, err := ParseReg(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseReg(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseReg(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Round-trip: every register's String parses back to itself.
func TestParseRegRoundTrip(t *testing.T) {
	for i := 0; i < NumArchRegs; i++ {
		r := Reg(i)
		got, err := ParseReg(r.String())
		if err != nil || got != r {
			t.Fatalf("round trip %v -> %v (err %v)", r, got, err)
		}
	}
}

func TestFormatSrcFields(t *testing.T) {
	cases := []struct {
		f    Format
		want int
	}{
		{FmtR, 2}, {FmtStore, 2},
		{FmtI, 1}, {FmtR1, 1}, {FmtLoad, 1}, {FmtBranch, 1}, {FmtJmp, 1},
		{FmtLI, 0}, {FmtBr, 0}, {FmtNone, 0},
	}
	for _, c := range cases {
		if got := c.f.NumSrcFields(); got != c.want {
			t.Errorf("%v.NumSrcFields = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestOpcodeMetadata(t *testing.T) {
	if OpADD.Format() != FmtR || OpADD.Class() != ClassIntALU {
		t.Fatal("OpADD metadata wrong")
	}
	if OpLDQ.Format() != FmtLoad || !OpLDQ.IsLoad() {
		t.Fatal("OpLDQ metadata wrong")
	}
	if !OpSTQ.IsStore() || OpSTQ.Format() != FmtStore {
		t.Fatal("OpSTQ metadata wrong")
	}
	if !OpBEQZ.IsBranch() || !OpBEQZ.IsCondBranch() {
		t.Fatal("OpBEQZ metadata wrong")
	}
	if !OpBR.IsBranch() || OpBR.IsCondBranch() {
		t.Fatal("OpBR metadata wrong")
	}
	if !OpFADD.FpDest() || OpFCMPEQ.FpDest() {
		t.Fatal("FpDest wrong: fadd writes fp, fcmpeq writes int")
	}
	if OpInvalid.Valid() || !OpADD.Valid() {
		t.Fatal("Valid wrong")
	}
}

// Every defined opcode has a unique, parseable mnemonic.
func TestOpcodeNamesRoundTrip(t *testing.T) {
	seen := map[string]Opcode{}
	for op := OpInvalid + 1; op < Opcode(NumOpcodes); op++ {
		name := op.String()
		if prev, dup := seen[name]; dup {
			t.Fatalf("mnemonic %q shared by %d and %d", name, prev, op)
		}
		seen[name] = op
		if got := OpcodeByName(name); got != op {
			t.Fatalf("OpcodeByName(%q) = %v, want %v", name, got, op)
		}
	}
	if OpcodeByName("frobnicate") != OpInvalid {
		t.Fatal("unknown mnemonic did not map to OpInvalid")
	}
	if OpcodeByName("invalid") != OpInvalid {
		t.Fatal("\"invalid\" must not resolve to a real opcode")
	}
}

func TestInstDest(t *testing.T) {
	add := Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: IntReg(3)}
	if d, ok := add.Dest(); !ok || d != IntReg(1) {
		t.Fatalf("add Dest = %v,%v", d, ok)
	}
	// Write to zero register: no architectural destination.
	if _, ok := Nop().Dest(); ok {
		t.Fatal("nop reported a destination")
	}
	st := Inst{Op: OpSTQ, Rd: IntReg(1), Ra: IntReg(2), Imm: 8}
	if _, ok := st.Dest(); ok {
		t.Fatal("store reported a destination")
	}
	br := Inst{Op: OpBEQZ, Ra: IntReg(1), Imm: -4}
	if _, ok := br.Dest(); ok {
		t.Fatal("conditional branch reported a destination")
	}
	call := Inst{Op: OpBR, Rd: RegRA, Imm: 10}
	if d, ok := call.Dest(); !ok || d != RegRA {
		t.Fatal("br with link register must report a destination")
	}
	putc := Inst{Op: OpPUTC, Ra: IntReg(1)}
	if _, ok := putc.Dest(); ok {
		t.Fatal("putc reported a destination")
	}
}

func TestInstSrcs(t *testing.T) {
	cases := []struct {
		in    Inst
		wantN int
		want  [2]Reg
	}{
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: IntReg(3)}, 2, [2]Reg{IntReg(2), IntReg(3)}},
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: ZeroInt}, 1, [2]Reg{IntReg(2), RegNone}},
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: IntReg(2)}, 1, [2]Reg{IntReg(2), RegNone}},
		{Inst{Op: OpADDI, Rd: IntReg(1), Ra: IntReg(2), Imm: 4}, 1, [2]Reg{IntReg(2), RegNone}},
		{Inst{Op: OpLDI, Rd: IntReg(1), Imm: 42}, 0, [2]Reg{RegNone, RegNone}},
		{Inst{Op: OpSTQ, Rd: IntReg(1), Ra: IntReg(2), Imm: 0}, 2, [2]Reg{IntReg(1), IntReg(2)}},
		{Inst{Op: OpSTQ, Rd: ZeroInt, Ra: IntReg(2), Imm: 0}, 1, [2]Reg{IntReg(2), RegNone}},
		{Inst{Op: OpLDQ, Rd: IntReg(1), Ra: IntReg(2), Imm: 0}, 1, [2]Reg{IntReg(2), RegNone}},
		{Inst{Op: OpBEQZ, Ra: IntReg(5), Imm: 3}, 1, [2]Reg{IntReg(5), RegNone}},
		{Inst{Op: OpBR, Rd: ZeroInt, Imm: 3}, 0, [2]Reg{RegNone, RegNone}},
		{Inst{Op: OpJMP, Rd: ZeroInt, Ra: RegRA}, 1, [2]Reg{RegRA, RegNone}},
		{Inst{Op: OpHALT}, 0, [2]Reg{RegNone, RegNone}},
	}
	for _, c := range cases {
		a, b, n := c.in.Srcs()
		if got := [2]Reg{a, b}; n != c.wantN || got != c.want {
			t.Errorf("%v Srcs = %v,%d want %v,%d", c.in, got, n, c.want, c.wantN)
		}
	}
}

// TestClassify walks Figure 2–3's funnel: stores sit apart, loads and
// other 0/1-source formats are not 2-source format, and the 2-source
// format narrows from nops through zero-register and identical sources
// to the true 2-source instruction.
func TestClassify(t *testing.T) {
	cases := []struct {
		in   Inst
		want OperandClass
	}{
		{Inst{Op: OpSTQ, Rd: IntReg(1), Ra: IntReg(2)}, ClassStoreInst},
		{Inst{Op: OpLDQ, Rd: IntReg(1), Ra: IntReg(2)}, ClassOther},
		{Inst{Op: OpADDI, Rd: IntReg(1), Ra: IntReg(2), Imm: 1}, ClassOther},
		{Inst{Op: OpBEQZ, Ra: IntReg(1)}, ClassOther},
		{Nop(), ClassNop2Src},
		{Inst{Op: OpADD, Rd: ZeroInt, Ra: IntReg(1), Rb: IntReg(2)}, ClassNop2Src},
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: ZeroInt}, ClassZeroReg},
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: ZeroInt, Rb: IntReg(2)}, ClassZeroReg},
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: IntReg(2)}, ClassIdentical},
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: IntReg(3)}, Class2Source},
		{Inst{Op: OpFADD, Rd: FpReg(1), Ra: FpReg(2), Rb: FpReg(3)}, Class2Source},
	}
	for _, c := range cases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Classification is consistent with Srcs: Class2Source iff two unique
// non-zero sources on a non-store.
func TestClassifyConsistentWithSrcs(t *testing.T) {
	regs := []Reg{IntReg(1), IntReg(2), ZeroInt}
	for op := OpInvalid + 1; op < Opcode(NumOpcodes); op++ {
		for _, ra := range regs {
			for _, rb := range regs {
				in := Canonicalize(Inst{Op: op, Rd: IntReg(3), Ra: ra, Rb: rb})
				_, _, n := in.Srcs()
				is2 := Classify(in) == Class2Source
				want := n == 2 && !op.IsStore()
				if is2 != want {
					t.Fatalf("%v: Class2Source=%v but unique srcs=%d", in, is2, n)
				}
			}
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: IntReg(1), Ra: IntReg(2), Rb: IntReg(3)}, "add r1, r2, r3"},
		{Inst{Op: OpADDI, Rd: IntReg(1), Ra: IntReg(2), Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: OpLDQ, Rd: IntReg(1), Ra: RegSP, Imm: 16}, "ldq r1, 16(r30)"},
		{Inst{Op: OpSTQ, Rd: IntReg(1), Ra: RegSP, Imm: 8}, "stq r1, 8(r30)"},
		{Inst{Op: OpBEQZ, Ra: IntReg(4), Imm: -2}, "beqz r4, -2"},
		{Inst{Op: OpJMP, Rd: ZeroInt, Ra: RegRA}, "jmp r31, (r26)"},
		{Inst{Op: OpLDI, Rd: IntReg(9), Imm: 7}, "ldi r9, 7"},
		{Inst{Op: OpFMOV, Rd: FpReg(1), Ra: FpReg(2)}, "fmov f1, f2"},
		{Inst{Op: OpPUTC, Ra: IntReg(3)}, "putc r3"},
		{Inst{Op: OpHALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}
