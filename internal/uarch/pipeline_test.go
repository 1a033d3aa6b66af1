package uarch

import (
	"testing"

	"halfprice/internal/asm"
	"halfprice/internal/isa"
	"halfprice/internal/trace"
	"halfprice/internal/vm"
)

// streamFor assembles and wraps a program.
func streamFor(src string) trace.Stream {
	return trace.NewVMStream(vm.New(asm.MustAssemble(src)), 2_000_000)
}

func run4(t *testing.T, cfg Config, src string) *Stats {
	t.Helper()
	return New(cfg, streamFor(src)).Run()
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.WindowSize = 0 },
		func(c *Config) { c.LSQSize = 0 },
		func(c *Config) { c.IntALU = 0 },
		func(c *Config) { c.MemPorts = 0 },
		func(c *Config) { c.FrontEndStages = 0 },
		func(c *Config) { c.OpPredEntries = 3 },
		func(c *Config) { c.Mem.MemLatency = -1 },
	}
	for i, mutate := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			cfg := Config4Wide()
			mutate(&cfg)
			New(cfg, trace.NewSliceStream(nil))
		}()
	}
}

func TestTable1Configs(t *testing.T) {
	c4, c8 := Config4Wide(), Config8Wide()
	if c4.Width != 4 || c4.WindowSize != 64 || c4.LSQSize != 32 || c4.IntALU != 4 || c4.MemPorts != 2 {
		t.Fatalf("4-wide config wrong: %+v", c4)
	}
	if c8.Width != 8 || c8.WindowSize != 128 || c8.LSQSize != 64 || c8.IntALU != 8 || c8.MemPorts != 4 {
		t.Fatalf("8-wide config wrong: %+v", c8)
	}
	if c4.IntDivLat != 20 || c4.FpMulLat != 4 || c4.FpDivLat != 12 {
		t.Fatal("latencies wrong")
	}
	if !pipelined(isa.ClassIntALU) || pipelined(isa.ClassIntDiv) || pipelined(isa.ClassFpDiv) {
		t.Fatal("pipelining classification wrong")
	}
}

func TestAllInstructionsCommitExactlyOnce(t *testing.T) {
	src := `
	ldi r1, 50
	ldi r16, 0x3000
loop:
	ldq r2, 0(r16)
	add r3, r2, r1
	stq r3, 8(r16)
	subi r1, r1, 1
	bnez r1, loop
	halt
`
	m := vm.New(asm.MustAssemble(src))
	want := uint64(0)
	{
		probe := vm.New(asm.MustAssemble(src))
		n, err := probe.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		want = n
	}
	st := New(Config4Wide(), trace.NewVMStream(m, 0)).Run()
	if st.Committed != want {
		t.Fatalf("committed %d, want %d", st.Committed, want)
	}
}

func TestCommitOrderIsProgramOrder(t *testing.T) {
	cfg := Config4Wide()
	sim := New(cfg, streamFor(`
	ldi r1, 30
loop:
	ldq r2, 0x3000(r31)
	add r3, r2, r2
	subi r1, r1, 1
	bnez r1, loop
	halt
`))
	var last int64 = -1
	sim.onCommit = func(u *uop) {
		if int64(u.seq) != last+1 {
			t.Fatalf("commit order broken: seq %d after %d", u.seq, last)
		}
		last = int64(u.seq)
	}
	sim.Run()
	if last < 0 {
		t.Fatal("nothing committed")
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	// A serial add chain cannot exceed one instruction per cycle.
	st := run4(t, Config4Wide(), `
	ldi r1, 0
	ldi r2, 2000
loop:
	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	subi r2, r2, 1
	bnez r2, loop
	halt
`)
	if ipc := st.IPC(); ipc > 1.35 || ipc < 0.8 {
		t.Fatalf("serial chain IPC = %v, want ~1", ipc)
	}
}

func TestIndependentOpsReachWidth(t *testing.T) {
	// Independent work should approach the 4-wide limit, gated by the
	// taken-branch fetch break (9 instructions per iteration).
	st := run4(t, Config4Wide(), `
	ldi r9, 3000
loop:
	addi r1, r16, 1
	addi r2, r17, 2
	addi r3, r18, 3
	addi r4, r19, 4
	addi r5, r16, 5
	addi r6, r17, 6
	addi r7, r18, 7
	subi r9, r9, 1
	bnez r9, loop
	halt
`)
	if ipc := st.IPC(); ipc < 2.4 {
		t.Fatalf("independent IPC = %v, want > 2.4", ipc)
	}
}

func TestLoadUseLatency(t *testing.T) {
	// Serial pointer chase: each load depends on the previous one.
	// Per-iteration cost ~ load-use latency (3) + 1 for the add.
	src := `
	.data
p:	.quad p
	.text
	ldi r10, p
	ldi r2, 1000
loop:
	ldq r10, 0(r10)
	subi r2, r2, 1
	bnez r2, loop
	halt
`
	st := run4(t, Config4Wide(), src)
	cpl := float64(st.Cycles) / 1000 // cycles per loop iteration
	if cpl < 2.5 || cpl > 4.5 {
		t.Fatalf("pointer-chase cycles/iter = %v, want ~3", cpl)
	}
}

func TestLoadMissTriggersReplay(t *testing.T) {
	// Strided walk over 8 MB: every 16B-line access misses DL1; the
	// dependent add gets replayed by non-selective recovery.
	st := run4(t, Config4Wide(), `
	ldi r16, 0x100000
	ldi r2, 2000
loop:
	ldq r10, 0(r16)
	add r3, r10, r2
	addi r16, r16, 4096
	subi r2, r2, 1
	bnez r2, loop
	halt
`)
	if st.ReplaySquashes == 0 {
		t.Fatal("no replay squashes despite guaranteed misses")
	}
}

func TestSelectiveRecoverySquashesLess(t *testing.T) {
	p, _ := trace.ProfileByName("mcf")
	cfgN := Config4Wide()
	stN := New(cfgN, trace.NewSynthetic(p, 60000)).Run()
	cfgS := Config4Wide()
	cfgS.Recovery = RecoverySelective
	stS := New(cfgS, trace.NewSynthetic(p, 60000)).Run()
	if stS.ReplaySquashes >= stN.ReplaySquashes {
		t.Fatalf("selective squashes %d >= non-selective %d", stS.ReplaySquashes, stN.ReplaySquashes)
	}
	if stS.IPC() < stN.IPC() {
		t.Fatalf("selective IPC %v < non-selective %v", stS.IPC(), stN.IPC())
	}
}

func TestBranchMispredictPenaltyAtLeast11(t *testing.T) {
	// An unpredictable branch pattern (period-17 xorshift-ish via data)
	// incurs the full redirect penalty. Compare against the same loop
	// with a perfectly biased branch.
	p, _ := trace.ProfileByName("gcc")
	cfg := Config4Wide()
	st := New(cfg, trace.NewSynthetic(p, 60000)).Run()
	if st.BranchMispredicts == 0 {
		t.Fatal("no mispredicts in gcc profile")
	}
	// Each mispredict costs >= 11 cycles of fetch redirect; check that
	// total cycles reflect at least 8 cycles per mispredict beyond an
	// idealised run (loose lower bound).
	minCycles := st.Committed/uint64(cfg.Width) + 8*st.BranchMispredicts
	if st.Cycles < minCycles {
		t.Fatalf("cycles %d < floor %d: mispredict penalty too cheap", st.Cycles, minCycles)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store followed by an immediate load of the same address: the load
	// must forward, not wait for commit-time cache state.
	st := run4(t, Config4Wide(), `
	ldi r16, 0x3000
	ldi r2, 1500
loop:
	stq r2, 0(r16)
	ldq r10, 0(r16)
	add r3, r10, r2
	subi r2, r2, 1
	bnez r2, loop
	halt
`)
	if ipc := st.IPC(); ipc < 1.0 {
		t.Fatalf("forwarding loop IPC = %v (forwarding broken?)", ipc)
	}
}

func TestHaltDrainsPipeline(t *testing.T) {
	st := run4(t, Config4Wide(), "ldi r1, 1\nhalt")
	if st.Committed != 2 {
		t.Fatalf("committed = %d", st.Committed)
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := trace.ProfileByName("gzip")
	a := New(Config4Wide(), trace.NewSynthetic(p, 30000)).Run()
	b := New(Config4Wide(), trace.NewSynthetic(p, 30000)).Run()
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.Issued != b.Issued {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestDivNonPipelined(t *testing.T) {
	// Back-to-back independent divides must serialise on the two
	// divider units: 8 divides on 2 units of latency 20 -> >= 80 cycles.
	st := run4(t, Config4Wide(), `
	ldi r16, 100
	ldi r17, 3
	div r1, r16, r17
	div r2, r16, r17
	div r3, r16, r17
	div r4, r16, r17
	div r5, r16, r17
	div r6, r16, r17
	div r7, r16, r17
	div r8, r16, r17
	halt
`)
	if st.Cycles < 80 {
		t.Fatalf("8 divides finished in %d cycles; dividers pipelined?", st.Cycles)
	}
}

func TestWindowSizeLimitsILP(t *testing.T) {
	// A long-latency load followed by many independent adds: a small
	// window stalls dispatch sooner, so a larger window must not be slower.
	p, _ := trace.ProfileByName("mcf")
	small := Config4Wide()
	small.WindowSize = 16
	big := Config4Wide()
	stSmall := New(small, trace.NewSynthetic(p, 40000)).Run()
	stBig := New(big, trace.NewSynthetic(p, 40000)).Run()
	if stBig.IPC() < stSmall.IPC() {
		t.Fatalf("64-entry window IPC %v < 16-entry %v", stBig.IPC(), stSmall.IPC())
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	st := NewStats()
	if st.IPC() != 0 || st.Frac2Source() != 0 || st.OpPredAccuracy() != 0 ||
		st.OrderSameFrac() != 0 || st.LastLeftFrac() != 0 || st.MispredictRate() != 0 ||
		st.FracTwoPortNeed() != 0 || st.FracTwoPending() != 0 || st.Frac2SourceFormat() != 0 ||
		st.FracStores() != 0 {
		t.Fatal("zero-value stats must report 0")
	}
	st.Cycles, st.Committed = 100, 150
	if st.IPC() != 1.5 {
		t.Fatalf("IPC = %v", st.IPC())
	}
	st.ClassCounts[5] = 30 // 2-source
	st.ClassCounts[0] = 15 // stores
	st.ClassCounts[2] = 10 // nops
	if st.Frac2Source() != 0.2 {
		t.Fatalf("Frac2Source = %v", st.Frac2Source())
	}
	if st.FracStores() != 0.1 {
		t.Fatalf("FracStores = %v", st.FracStores())
	}
	if got := st.Frac2SourceFormat(); got != (30.0+10.0)/150.0 {
		t.Fatalf("Frac2SourceFormat = %v", got)
	}
	st.ReadyAtInsert = [3]uint64{6, 14, 10}
	if st.FracTwoPending() != 0.2 {
		t.Fatalf("FracTwoPending = %v", st.FracTwoPending())
	}
	st.OrderSame, st.OrderDiff = 9, 1
	if st.OrderSameFrac() != 0.9 {
		t.Fatalf("OrderSameFrac = %v", st.OrderSameFrac())
	}
	st.LastLeft, st.LastRight = 3, 1
	if st.LastLeftFrac() != 0.75 {
		t.Fatalf("LastLeftFrac = %v", st.LastLeftFrac())
	}
	st.OpPredCorrect, st.OpPredIncorrect, st.OpPredSimultaneous = 8, 1, 1
	if st.OpPredAccuracy() != 0.8 {
		t.Fatalf("OpPredAccuracy = %v", st.OpPredAccuracy())
	}
	st.RegTwoReady, st.RegNonBackToBack = 3, 3
	if st.FracTwoPortNeed() != 0.04 {
		t.Fatalf("FracTwoPortNeed = %v", st.FracTwoPortNeed())
	}
}

func TestSchemeStrings(t *testing.T) {
	cases := map[string]string{
		WakeupConventional.String():   "conventional",
		WakeupSequential.String():     "seq-wakeup",
		WakeupTagElim.String():        "tag-elim",
		RFTwoPort.String():            "2-port",
		RFSequential.String():         "seq-rf",
		RFExtraStage.String():         "extra-stage",
		RFHalfCrossbar.String():       "crossbar",
		RecoveryNonSelective.String(): "non-selective",
		RecoverySelective.String():    "selective",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// frontQueueDepth is a Tracer that follows the front queue's occupancy:
// instructions fetched but not yet dispatched.
type frontQueueDepth struct{ n, max int }

func (f *frontQueueDepth) Trace(_ int64, ev Event, _ uint64, _ isa.Inst) {
	switch ev {
	case EvFetch:
		if f.n++; f.n > f.max {
			f.max = f.n
		}
	case EvDispatch:
		f.n--
	}
}

// TestFrontQueueUnboundedKnownDeviation pins a known deviation
// (PIPELINE.md §Stage map): fetch never checks the front queue's length,
// so while the window is full it runs hundreds of instructions ahead of
// dispatch, where a real FrontEndStages-deep, Width-wide front end holds
// FrontEndStages×Width. IL1 misses taken then overlap the stall instead
// of delaying dispatch. Bounding the queue changes Stats; the change that
// does so inverts this test.
func TestFrontQueueUnboundedKnownDeviation(t *testing.T) {
	p, _ := trace.ProfileByName("gzip")
	cfg := Config4Wide()
	sim := New(cfg, trace.NewSynthetic(p, 20000))
	var d frontQueueDepth
	sim.SetTracer(&d)
	sim.Run()
	slots := cfg.FrontEndStages * cfg.Width
	if d.max <= slots {
		t.Fatalf("front queue peaked at %d entries, within the %d front-end slots: the deviation is fixed, invert this test", d.max, slots)
	}
	t.Logf("front queue peaked at %d entries against %d front-end slots", d.max, slots)
}

// TestReplayWaitOnlyUnderExtraRFStageKnownDeviation pins a known
// deviation (ROADMAP, load-shadow finding 3): the CPI stack's
// replay-wait class is empty under every scheme but the extra register-
// file stage. A load verifies hit/miss at t+1+DL1, the first cycle its
// dependents could issue, and verifyLoads runs before issue, so nothing
// issued after the load reaches the head before the load verifies. Only
// the extra RF stage verifies a cycle later. Finding 2's fix, verifying
// after the issue-to-execute distance as the paper's pipeline does,
// inverts this test.
func TestReplayWaitOnlyUnderExtraRFStageKnownDeviation(t *testing.T) {
	wantReplayWait := map[string]bool{"base": false, "halfprice": false, "tagelim": false, "pipelined-rf": true}
	widths := []struct {
		name string
		cfg  func() Config
	}{{"4wide", Config4Wide}, {"8wide", Config8Wide}}
	for _, bench := range trace.BenchmarkNames {
		p, _ := trace.ProfileByName(bench)
		for _, w := range widths {
			for _, sch := range equivSchemes {
				want, ok := wantReplayWait[sch.name]
				if !ok {
					continue
				}
				cfg := w.cfg()
				if sch.mutate != nil {
					sch.mutate(&cfg)
				}
				got := New(cfg, trace.NewSynthetic(p, 20000)).Run().CycleClasses[CycleReplayWait]
				if (got > 0) != want {
					t.Errorf("%s/%s/%s: %d replay-wait cycles, want them present=%v: the deviation moved, update this test",
						bench, w.name, sch.name, got, want)
				}
			}
		}
	}
}
