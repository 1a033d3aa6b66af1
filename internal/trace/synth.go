package trace

import (
	"halfprice/internal/isa"
)

// Address-space layout of synthetic workloads.
const (
	synthTextBase = uint64(0x0000_1000)
	synthHotBase  = uint64(0x0020_0000)
	synthColdBase = uint64(0x1000_0000)
	// synthWarmBase is an L2-resident region larger than DL1: references
	// there miss DL1 but hit L2 — enough latency jitter to flip operand
	// arrival order without the cost of a memory access.
	synthWarmBase = uint64(0x0800_0000)
	synthWarmSize = uint64(256 * 1024)
)

type termKind uint8

const (
	termNone termKind = iota
	termCond
	termJump
	termCall
	termRet
)

// addrGen produces effective addresses for one static memory site. A site
// with mix > 0 occasionally (per access) touches the cold region instead
// of its home region — the per-instance latency variation behind race
// sites' order flips.
type addrGen struct {
	stride bool
	base   uint64
	size   uint64
	step   uint64
	cur    uint64

	mix     float64
	mixBase uint64
	mixSize uint64
}

func (g *addrGen) next(r *rng) uint64 {
	if g.mix > 0 && float64(r.next()>>11)/float64(1<<53) < g.mix {
		return g.mixBase + (r.next()%(g.mixSize/8))*8
	}
	if g.stride {
		g.cur = (g.cur + g.step) % g.size
		return g.base + g.cur
	}
	return g.base + (r.next()%(g.size/8))*8
}

// staticInst is one site of the synthetic program skeleton.
type staticInst struct {
	inst     isa.Inst
	addr     *addrGen
	term     termKind
	bias     float64
	takenBlk int
}

type blockT struct {
	startPC uint64
	sites   []staticInst
}

// Synthetic is a deterministic dynamic-instruction stream over a randomly
// generated but fixed program skeleton, calibrated by a Profile.
type Synthetic struct {
	p        Profile
	blocks   []blockT
	r        *rng
	cur      int
	siteIdx  int
	retStack []int
	seq      uint64
	max      uint64
}

// NewSynthetic builds the program skeleton for p and returns a stream of
// at most maxInsts dynamic instructions. The same profile and maxInsts
// always produce the identical stream.
func NewSynthetic(p Profile, maxInsts uint64) *Synthetic {
	p.validate()
	g := &generator{p: p, r: newRng(p.Seed), lastLoad: isa.RegNone, curIV: isa.RegNone}
	s := &Synthetic{p: p, blocks: g.build(), r: newRng(p.Seed ^ 0xABCD_EF01_2345_6789), max: maxInsts}
	return s
}

// Profile returns the generating profile.
func (s *Synthetic) Profile() Profile { return s.p }

// NumBlocks returns the static block count (for tests).
func (s *Synthetic) NumBlocks() int { return len(s.blocks) }

// StaticInsts returns the static instruction footprint (for tests).
func (s *Synthetic) StaticInsts() int {
	n := 0
	for _, b := range s.blocks {
		n += len(b.sites)
	}
	return n
}

// Next emits the next dynamic instruction.
func (s *Synthetic) Next() (DynInst, bool) {
	var d DynInst
	ok := s.NextInto(&d)
	return d, ok
}

// NextInto writes the next dynamic instruction into d field by field, so
// that a caller reading into its own record gets each instruction written
// once. At the end of the stream it reports false and leaves d alone.
func (s *Synthetic) NextInto(d *DynInst) bool {
	if s.seq >= s.max {
		return false
	}
	blk := &s.blocks[s.cur]
	st := &blk.sites[s.siteIdx]
	pc := blk.startPC + uint64(s.siteIdx)*isa.InstBytes
	d.Seq, d.PC, d.Inst, d.NextPC, d.EffAddr, d.Taken = s.seq, pc, st.inst, pc+isa.InstBytes, 0, false
	if st.addr != nil {
		d.EffAddr = st.addr.next(s.r)
	}
	switch st.term {
	case termNone:
		s.advance()
	case termCond:
		if s.r.chance(st.bias) {
			d.Taken = true
			d.NextPC = s.blocks[st.takenBlk].startPC
			s.goTo(st.takenBlk)
		} else {
			s.advance()
		}
	case termJump:
		d.Taken = true
		d.NextPC = s.blocks[st.takenBlk].startPC
		s.goTo(st.takenBlk)
	case termCall:
		d.Taken = true
		d.NextPC = s.blocks[st.takenBlk].startPC
		s.retStack = append(s.retStack, s.cur+1)
		s.goTo(st.takenBlk)
	case termRet:
		d.Taken = true
		ret := 0
		if n := len(s.retStack); n > 0 {
			ret = s.retStack[n-1]
			s.retStack = s.retStack[:n-1]
		}
		d.NextPC = s.blocks[ret].startPC
		s.goTo(ret)
	}
	s.seq++
	return true
}

func (s *Synthetic) advance() {
	s.siteIdx++
	if s.siteIdx >= len(s.blocks[s.cur].sites) {
		s.goTo(s.cur + 1)
	}
}

func (s *Synthetic) goTo(blk int) {
	if blk >= len(s.blocks) {
		blk = 0
	}
	s.cur = blk
	s.siteIdx = 0
}

// generator builds the static skeleton.
type generator struct {
	p      Profile
	r      *rng
	blocks []blockT

	recentInt []isa.Reg // most recent integer destinations
	recentFp  []isa.Reg
	lastLoad  isa.Reg // destination of the most recent load site
	curIV     isa.Reg // the current loop's induction register
}

// Register conventions of the synthetic programs: r1..r9/f1..f9 rotate as
// ALU destinations, r10..r15/f10..f15 are reserved for load results (so a
// register name reliably identifies its producer's latency class), and
// r16..r25/f16..f25 are long-lived loop invariants that are essentially
// always ready at insert.
func (g *generator) pickDest(fp bool) isa.Reg {
	if fp {
		return isa.FpReg(1 + g.r.intn(9))
	}
	return isa.IntReg(1 + g.r.intn(9))
}

func (g *generator) pickLoadDest() isa.Reg {
	return isa.IntReg(10 + g.r.intn(6))
}

func (g *generator) pickInvariant(fp bool) isa.Reg {
	if fp {
		return isa.FpReg(16 + g.r.intn(10))
	}
	return isa.IntReg(16 + g.r.intn(10))
}

func (g *generator) pushRecent(r isa.Reg) {
	win := g.p.DepWindow
	if r.IsFp() {
		g.recentFp = append(g.recentFp, r)
		if len(g.recentFp) > win {
			g.recentFp = g.recentFp[1:]
		}
		return
	}
	g.recentInt = append(g.recentInt, r)
	if len(g.recentInt) > win {
		g.recentInt = g.recentInt[1:]
	}
}

// pickNear returns a recently written register (a likely-pending operand),
// geometrically preferring the most recent writes — tight dependences.
func (g *generator) pickNear(fp bool) isa.Reg {
	pool := g.recentInt
	if fp {
		pool = g.recentFp
	}
	if len(pool) == 0 {
		return g.pickInvariant(fp)
	}
	k := len(pool) - 1
	for k > 0 && g.r.chance(0.45) {
		k--
	}
	return pool[k]
}

// pickNearLoose returns an older recent write, biasing toward the far end
// of the window so that when both operands of an instruction are pending,
// their producers usually finish in different cycles (the paper's Figure 6
// finds simultaneous wakeups under 3%).
func (g *generator) pickNearLoose(fp bool) isa.Reg {
	pool := g.recentInt
	if fp {
		pool = g.recentFp
	}
	if len(pool) < 2 {
		return g.pickInvariant(fp)
	}
	return pool[g.r.intn(len(pool)/2)]
}

// pickSource returns a near dependence with probability NearDepFrac, else
// an invariant (ready at insert).
func (g *generator) pickSource(fp bool) isa.Reg {
	if g.r.chance(g.p.NearDepFrac) {
		return g.pickNear(fp)
	}
	return g.pickInvariant(fp)
}

var (
	intROps  = []isa.Opcode{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRA, isa.OpCMPEQ, isa.OpCMPLT, isa.OpANDNOT}
	intIOps  = []isa.Opcode{isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLLI, isa.OpSRAI, isa.OpCMPLTI, isa.OpCMPEQI}
	fpROps   = []isa.Opcode{isa.OpFADD, isa.OpFSUB, isa.OpFMUL}
	fpR1Ops  = []isa.Opcode{isa.OpFMOV, isa.OpFNEG, isa.OpFABS}
	condOps  = []isa.Opcode{isa.OpBEQZ, isa.OpBNEZ, isa.OpBLTZ, isa.OpBGEZ}
	loadOps  = []isa.Opcode{isa.OpLDQ, isa.OpLDQ, isa.OpLDL, isa.OpLDBU}
	storeOps = []isa.Opcode{isa.OpSTQ, isa.OpSTQ, isa.OpSTL, isa.OpSTB}
)

func (g *generator) newAddrGen() *addrGen { return g.newAddrGenCold(g.p.ColdFrac) }

// newAddrGenCold builds an address generator whose site addresses the
// cold set with the given probability.
func (g *generator) newAddrGenCold(coldChance float64) *addrGen {
	cold := g.r.chance(coldChance)
	ag := &addrGen{stride: g.r.chance(g.p.StrideFrac), step: 16}
	if cold {
		ag.base, ag.size = synthColdBase, g.p.ColdSetBytes
	} else {
		ag.base, ag.size = synthHotBase, g.p.HotSetBytes
	}
	ag.cur = (g.r.next() % (ag.size / 8)) * 8
	return ag
}

// pick2SrcOp draws an R-format opcode per the mix knobs.
func (g *generator) pick2SrcOp(fp bool) isa.Opcode {
	switch {
	case fp && g.r.chance(g.p.DivFrac*4):
		return isa.OpFDIV
	case fp:
		return fpROps[g.r.intn(len(fpROps))]
	case g.r.chance(g.p.DivFrac):
		return isa.OpDIV
	case g.r.chance(g.p.MulFrac):
		return isa.OpMUL
	default:
		return intROps[g.r.intn(len(intROps))]
	}
}

// genChainedPair emits a dependence-chained pattern feeding a 2-source
// consumer: t1 = f(x); t2 = g(t1); d = h(t1, t2). Both consumer operands
// are in flight at insert (2-pending), but since t2 depends on t1 their
// wakeups are always at least one cycle apart — the structural reason the
// paper finds simultaneous wakeups under 3% (Figure 6). The chained value
// t2 is deterministically last-arriving, which also gives the high
// operand-order stability of Table 3.
func (g *generator) genChainedPair(fp bool) []staticInst {
	x := g.pickSource(fp)
	t1 := g.pickDest(fp)
	i1 := isa.Inst{Op: isa.OpADDI, Rd: t1, Ra: x, Imm: int64(g.r.intn(64))}
	if fp {
		i1 = isa.Inst{Op: fpR1Ops[g.r.intn(len(fpR1Ops))], Rd: t1, Ra: x}
	}
	t2 := g.pickDest(fp)
	for t2 == t1 {
		t2 = g.pickDest(fp)
	}
	i2 := isa.Inst{Op: isa.OpXORI, Rd: t2, Ra: t1, Imm: int64(g.r.intn(64))}
	if fp {
		i2 = isa.Inst{Op: fpR1Ops[g.r.intn(len(fpR1Ops))], Rd: t2, Ra: t1}
	}
	con := isa.Inst{Op: g.pick2SrcOp(fp), Rd: g.pickDest(fp)}
	// t2 arrives last; place it per the profile's left/right bias.
	if g.r.chance(g.p.LeftLastBias) {
		con.Ra, con.Rb = t2, t1
	} else {
		con.Ra, con.Rb = t1, t2
	}
	g.pushRecent(t1)
	g.pushRecent(t2)
	g.pushRecent(con.Rd)
	return []staticInst{
		{inst: isa.Canonicalize(i1)},
		{inst: isa.Canonicalize(i2)},
		{inst: isa.Canonicalize(con)},
	}
}

// genRacePair emits a 2-pending consumer whose operands race: one comes
// through a load, the other through an ALU chain of comparable depth.
// Which side arrives last depends on cache behaviour, port contention and
// forwarding — so the order varies between dynamic instances, producing
// the imperfect wakeup-order stability of Table 3 and the operand
// mispredictions that exercise sequential wakeup's slow bus and tag
// elimination's scoreboard.
func (g *generator) genRacePair(fp bool) []staticInst {
	newLoad := func(coldChance float64) (isa.Reg, staticInst) {
		t := g.pickLoadDest()
		in := isa.Canonicalize(isa.Inst{Op: isa.OpLDQ, Rd: t, Ra: g.pickInvariant(false), Imm: int64(g.r.intn(16)) * 8})
		return t, staticInst{inst: in, addr: g.newAddrGenCold(coldChance)}
	}
	// Side A misses noticeably often *per access*; side B is one ALU
	// step deeper on the hit path. Hits -> B arrives last; an A miss ->
	// A arrives last. The per-instance flips produce Table 3's imperfect
	// order stability.
	tA, loadA := newLoad(0)
	loadA.addr.mix = 0.25
	loadA.addr.mixBase, loadA.addr.mixSize = synthWarmBase, synthWarmSize
	tB, loadB := newLoad(g.p.ColdFrac)
	for tB == tA {
		tB, loadB = newLoad(g.p.ColdFrac)
	}
	out := []staticInst{loadA, loadB}
	a := g.pickDest(false)
	out = append(out, staticInst{inst: isa.Canonicalize(isa.Inst{Op: isa.OpADDI, Rd: a, Ra: tB, Imm: int64(g.r.intn(64))})})
	g.pushRecent(a)
	right := a
	con := isa.Inst{Op: g.pick2SrcOp(false), Rd: g.pickDest(false)}
	if g.r.chance(0.5) {
		con.Ra, con.Rb = tA, right
	} else {
		con.Ra, con.Rb = right, tA
	}
	g.pushRecent(tA)
	g.pushRecent(tB)
	g.lastLoad = tB
	g.pushRecent(con.Rd)
	return append(out, staticInst{inst: isa.Canonicalize(con)})
}

// genALU builds ALU sites per the profile's operand-shape knobs. It may
// emit a short instruction group (see genChainedPair).
func (g *generator) genALU() []staticInst {
	fp := g.r.chance(g.p.FpFrac)
	var in isa.Inst
	switch {
	case g.r.chance(g.p.TwoSrcFrac):
		in.Op = g.pick2SrcOp(fp)
		switch {
		case g.r.chance(g.p.ZeroRegFrac):
			// One field is the zero register.
			src := g.pickSource(fp)
			zero := isa.ZeroInt
			if fp {
				zero = isa.ZeroFp
			}
			if g.r.chance(0.5) {
				in.Ra, in.Rb = src, zero
			} else {
				in.Ra, in.Rb = zero, src
			}
		case g.r.chance(g.p.IdentFrac):
			src := g.pickSource(fp)
			in.Ra, in.Rb = src, src
		case g.r.chance(g.p.SecondNearFrac):
			// 2-pending site: a load/ALU race (variable order), a
			// chained pair (slack >= 1 by construction), or a small
			// unstructured residue providing the rare simultaneous
			// wakeups.
			if g.r.chance(g.p.RaceFrac) {
				return g.genRacePair(fp)
			}
			if g.r.chance(0.9) {
				return g.genChainedPair(fp)
			}
			near := g.pickNear(fp)
			far := g.pickNearLoose(fp)
			for far == near {
				far = g.pickInvariant(fp)
			}
			if g.r.chance(g.p.LeftLastBias) {
				in.Ra, in.Rb = near, far
			} else {
				in.Ra, in.Rb = far, near
			}
		default:
			// One tight dependence plus a long-lived register: the
			// common shape (fresh value combined with a base pointer,
			// accumulator or constant-ish operand).
			near := g.pickNear(fp)
			far := g.pickInvariant(fp)
			for far == near || far == g.curIV {
				far = g.pickInvariant(fp)
			}
			if g.r.chance(g.p.LeftLastBias) {
				in.Ra, in.Rb = near, far
			} else {
				in.Ra, in.Rb = far, near
			}
		}
	case fp:
		in.Op = fpR1Ops[g.r.intn(len(fpR1Ops))]
		in.Ra = g.pickSource(fp)
	case g.r.chance(0.08):
		in.Op = isa.OpLDI
		in.Imm = int64(g.r.intn(1024))
	default:
		in.Op = intIOps[g.r.intn(len(intIOps))]
		in.Ra = g.pickSource(false)
		in.Imm = int64(g.r.intn(256))
	}
	in.Rd = g.pickDest(fp && in.Op.FpDest())
	if in.Op == isa.OpDIV {
		// Keep divisor an invariant to avoid absurd serial DIV chains.
		in.Rb = g.pickInvariant(false)
	}
	g.pushRecent(in.Rd)
	return []staticInst{{inst: isa.Canonicalize(in)}}
}

// genSlot builds one non-terminator site (occasionally a short group).
func (g *generator) genSlot() []staticInst {
	roll := g.r.float()
	switch {
	case roll < g.p.NopFrac:
		return []staticInst{{inst: isa.Nop()}}
	case roll < g.p.NopFrac+g.p.LoadFrac:
		op := loadOps[g.r.intn(len(loadOps))]
		var base isa.Reg
		switch {
		case g.lastLoad.Valid() && g.r.chance(g.p.PtrChaseFrac):
			base = g.lastLoad // pointer chase: serial load chain
		case g.r.chance(g.p.NearDepFrac * 0.6):
			base = g.pickNear(false)
		default:
			base = g.pickInvariant(false)
		}
		dest := g.pickLoadDest()
		g.pushRecent(dest)
		g.lastLoad = dest
		in := isa.Canonicalize(isa.Inst{Op: op, Rd: dest, Ra: base, Imm: int64(g.r.intn(16)) * 8})
		return []staticInst{{inst: in, addr: g.newAddrGen()}}
	case roll < g.p.NopFrac+g.p.LoadFrac+g.p.StoreFrac:
		op := storeOps[g.r.intn(len(storeOps))]
		data := g.pickSource(false)
		var base isa.Reg
		if g.r.chance(g.p.NearDepFrac * 0.4) {
			base = g.pickNear(false)
		} else {
			base = g.pickInvariant(false)
		}
		in := isa.Canonicalize(isa.Inst{Op: op, Rd: data, Ra: base, Imm: int64(g.r.intn(16)) * 8})
		return []staticInst{{inst: in, addr: g.newAddrGen()}}
	default:
		return g.genALU()
	}
}

func (g *generator) condInst() isa.Inst {
	op := condOps[g.r.intn(len(condOps))]
	src := g.pickSource(false)
	return isa.Canonicalize(isa.Inst{Op: op, Ra: src})
}

// build lays out the program: loop regions, a rewind block, then shared
// function regions reachable only by calls.
func (g *generator) build() []blockT {
	p := g.p
	type pendingTerm struct {
		blk      int // block index owning the terminator
		kind     termKind
		bias     float64
		takenBlk int // resolved later for symbolic targets
		callee   int // symbolic function id for termCall, resolved at the end
	}
	var blocks [][]staticInst
	var terms []pendingTerm

	newBlock := func() int {
		blocks = append(blocks, nil)
		return len(blocks) - 1
	}

	for l := 0; l < p.NumLoops; l++ {
		nBlocks := g.r.rangeInt(p.BlocksPerLoop[0], p.BlocksPerLoop[1])
		head := len(blocks)
		for b := 0; b < nBlocks; b++ {
			bi := newBlock()
			bodyLen := g.r.rangeInt(p.BlockLen[0], p.BlockLen[1])
			if b == 0 {
				// Loop-carried induction update: a long-lived register
				// advanced every iteration.
				iv := g.pickInvariant(false)
				g.curIV = iv
				blocks[bi] = append(blocks[bi], staticInst{inst: isa.Canonicalize(isa.Inst{Op: isa.OpADDI, Rd: iv, Ra: iv, Imm: 8})})
			}
			for i := 0; i < bodyLen; i++ {
				blocks[bi] = append(blocks[bi], g.genSlot()...)
			}
			if b == 0 && g.r.chance(0.28) {
				// Every other loop body carries one 2-pending group so
				// even small-footprint programs exercise the wakeup
				// dynamics of Figures 6/7 and Table 3.
				var grp []staticInst
				switch {
				case g.r.chance(p.RaceFrac):
					grp = g.genRacePair(false)
				case g.r.chance(0.07):
					// Two independent same-latency producers: the rare
					// genuinely simultaneous wakeup (Figure 6's 0-slack bar).
					a1, a2 := g.pickDest(false), g.pickDest(false)
					for a2 == a1 {
						a2 = g.pickDest(false)
					}
					con := isa.Inst{Op: g.pick2SrcOp(false), Rd: g.pickDest(false), Ra: a1, Rb: a2}
					grp = []staticInst{
						{inst: isa.Canonicalize(isa.Inst{Op: isa.OpADDI, Rd: a1, Ra: g.pickInvariant(false), Imm: 3})},
						{inst: isa.Canonicalize(isa.Inst{Op: isa.OpADDI, Rd: a2, Ra: g.pickInvariant(false), Imm: 5})},
						{inst: isa.Canonicalize(con)},
					}
					g.pushRecent(a1)
					g.pushRecent(a2)
					g.pushRecent(con.Rd)
				default:
					grp = g.genChainedPair(false)
				}
				blocks[bi] = append(blocks[bi], grp...)
			}
			last := b == nBlocks-1
			switch {
			case last:
				// Latch: conditional back edge to the loop head.
				blocks[bi] = append(blocks[bi], staticInst{inst: g.condInst()})
				terms = append(terms, pendingTerm{blk: bi, kind: termCond, bias: p.LoopBias, takenBlk: head})
			case b+2 < nBlocks && g.r.chance(p.IfFrac):
				// Forward if skipping the next block.
				bias := 0.0
				if g.r.chance(p.HardIfFrac) {
					bias = 0.35 + 0.3*g.r.float()
				} else if g.r.chance(0.5) {
					bias = 0.95 + 0.045*g.r.float()
				} else {
					bias = 0.005 + 0.045*g.r.float()
				}
				blocks[bi] = append(blocks[bi], staticInst{inst: g.condInst()})
				terms = append(terms, pendingTerm{blk: bi, kind: termCond, bias: bias, takenBlk: head + b + 2})
			case p.NumFuncs > 0 && g.r.chance(p.CallFrac):
				call := isa.Canonicalize(isa.Inst{Op: isa.OpBR, Rd: isa.RegRA})
				blocks[bi] = append(blocks[bi], staticInst{inst: call})
				fid := g.r.intn(p.NumFuncs)
				terms = append(terms, pendingTerm{blk: bi, kind: termCall, callee: fid})
			}
		}
	}

	// Rewind block: unconditional jump back to the top.
	rewind := newBlock()
	blocks[rewind] = append(blocks[rewind], staticInst{inst: isa.Canonicalize(isa.Inst{Op: isa.OpBR, Rd: isa.ZeroInt})})
	terms = append(terms, pendingTerm{blk: rewind, kind: termJump, takenBlk: 0})

	// Function regions.
	funcHead := make([]int, p.NumFuncs)
	for f := 0; f < p.NumFuncs; f++ {
		bi := newBlock()
		funcHead[f] = bi
		bodyLen := g.r.rangeInt(p.BlockLen[0], p.BlockLen[1])
		for i := 0; i < bodyLen; i++ {
			blocks[bi] = append(blocks[bi], g.genSlot()...)
		}
		ret := isa.Canonicalize(isa.Inst{Op: isa.OpJMP, Rd: isa.ZeroInt, Ra: isa.RegRA})
		blocks[bi] = append(blocks[bi], staticInst{inst: ret})
		terms = append(terms, pendingTerm{blk: bi, kind: termRet})
	}

	// Resolve call targets now that function heads exist.
	for ti := range terms {
		if terms[ti].kind == termCall {
			terms[ti].takenBlk = funcHead[terms[ti].callee]
		}
	}

	// Lay out PCs contiguously and attach terminators to the last site of
	// their block.
	out := make([]blockT, len(blocks))
	pc := synthTextBase
	for i, sites := range blocks {
		out[i] = blockT{startPC: pc, sites: sites}
		pc += uint64(len(sites)) * isa.InstBytes
	}
	for ti := range terms {
		t := terms[ti]
		b := &out[t.blk]
		last := &b.sites[len(b.sites)-1]
		last.term = t.kind
		last.bias = t.bias
		last.takenBlk = t.takenBlk
		// Make the encoded displacement consistent with the target so
		// disassembly and BTB-style math line up.
		if t.kind == termCond || t.kind == termJump || t.kind == termCall {
			sitePC := b.startPC + uint64(len(b.sites)-1)*isa.InstBytes
			delta := (int64(out[t.takenBlk].startPC) - int64(sitePC) - isa.InstBytes) / isa.InstBytes
			last.inst.Imm = delta
		}
	}
	return out
}
