package uarch

import (
	"testing"

	"halfprice/internal/isa"
	"halfprice/internal/trace"
)

func TestExtensionSchemeStrings(t *testing.T) {
	if RenameFull.String() != "full-rename" || RenameHalfPorts.String() != "half-rename" {
		t.Fatal("rename scheme names wrong")
	}
	if BypassFull.String() != "full-bypass" || BypassHalf.String() != "half-bypass" {
		t.Fatal("bypass scheme names wrong")
	}
}

// TestRenamePortsNeeded checks the source map-table lookups fetch's
// decode records for half-price rename: unique non-zero sources, with a
// store counting its data and base registers.
func TestRenamePortsNeeded(t *testing.T) {
	cases := []struct {
		in   isa.Inst
		want int
	}{
		{isa.Inst{Op: isa.OpADD, Rd: isa.IntReg(1), Ra: isa.IntReg(2), Rb: isa.IntReg(3)}, 2},
		{isa.Inst{Op: isa.OpADDI, Rd: isa.IntReg(1), Ra: isa.IntReg(2)}, 1},
		{isa.Inst{Op: isa.OpLDI, Rd: isa.IntReg(1)}, 0},
		{isa.Inst{Op: isa.OpSTQ, Rd: isa.IntReg(1), Ra: isa.IntReg(2)}, 2},
		{isa.Inst{Op: isa.OpSTQ, Rd: isa.ZeroInt, Ra: isa.IntReg(2)}, 1},
		{isa.Nop(), 0},
	}
	for _, c := range cases {
		var r decoded
		r.decode(&trace.DynInst{Inst: isa.Canonicalize(c.in)})
		if got := int(r.nuniq); got != c.want {
			t.Errorf("%v: ports = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestHalfRenameCostsLittle(t *testing.T) {
	p, _ := trace.ProfileByName("crafty") // the most 2-source-heavy suite member
	base := New(Config4Wide(), trace.NewSynthetic(p, 80000)).Run()
	cfg := Config4Wide()
	cfg.Rename = RenameHalfPorts
	hr := New(cfg, trace.NewSynthetic(p, 80000)).Run()
	if hr.RenameStalls == 0 {
		t.Fatal("half rename never ran out of ports on crafty")
	}
	ratio := hr.IPC() / base.IPC()
	if ratio > 1.002 {
		t.Fatalf("half rename faster than base: %.4f", ratio)
	}
	if ratio < 0.95 {
		t.Fatalf("half rename lost %.1f%%, too much for a W+1 port budget", 100*(1-ratio))
	}
}

func TestHalfBypassCostsLittle(t *testing.T) {
	p, _ := trace.ProfileByName("vpr")
	base := New(Config4Wide(), trace.NewSynthetic(p, 80000)).Run()
	cfg := Config4Wide()
	cfg.Bypass = BypassHalf
	hb := New(cfg, trace.NewSynthetic(p, 80000)).Run()
	ratio := hb.IPC() / base.IPC()
	if ratio > 1.002 {
		t.Fatalf("half bypass faster than base: %.4f", ratio)
	}
	if ratio < 0.95 {
		t.Fatalf("half bypass lost %.1f%%", 100*(1-ratio))
	}
	if hb.Committed != base.Committed {
		t.Fatal("half bypass lost instructions")
	}
}

func TestFullyHalfPriceMachine(t *testing.T) {
	// Everything halved at once: the paper's §6 "operand-centric" end
	// state. It must still run correctly and stay within a modest
	// envelope of the full-price machine.
	p, _ := trace.ProfileByName("gap")
	base := New(Config4Wide(), trace.NewSynthetic(p, 80000)).Run()
	cfg := Config4Wide()
	cfg.Wakeup = WakeupSequential
	cfg.Regfile = RFSequential
	cfg.Rename = RenameHalfPorts
	cfg.Bypass = BypassHalf
	all := New(cfg, trace.NewSynthetic(p, 80000)).Run()
	if all.Committed != base.Committed {
		t.Fatalf("committed %d vs %d", all.Committed, base.Committed)
	}
	ratio := all.IPC() / base.IPC()
	if ratio < 0.92 || ratio > 1.002 {
		t.Fatalf("fully half-price ratio %.4f outside [0.92, 1.0]", ratio)
	}
}

func TestBypassConflictDetection(t *testing.T) {
	// Construct a uop whose two producers both complete at cycle 10.
	mk := func(rc int64) *uop {
		return &uop{state: stateIssued, resultCycle: rc}
	}
	u := &uop{nsrc: 2}
	u.src[0], u.src[1] = mk(10), mk(10)
	s := &Simulator{cfg: Config4Wide()}
	if s.bypassConflict(u, 10) {
		t.Fatal("full bypass must never conflict")
	}
	s.cfg.Bypass = BypassHalf
	if !s.bypassConflict(u, 10) {
		t.Fatal("double capture not detected")
	}
	if s.bypassConflict(u, 11) {
		t.Fatal("cycle after capture must not conflict")
	}
	u.src[1] = mk(9)
	if s.bypassConflict(u, 10) {
		t.Fatal("single capture flagged as conflict")
	}
	one := &uop{nsrc: 1}
	one.src[0] = mk(10)
	if s.bypassConflict(one, 10) {
		t.Fatal("1-source instruction flagged")
	}
}
