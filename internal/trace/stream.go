// Package trace defines the dynamic instruction stream consumed by the
// timing pipeline, with two producers: the functional simulator
// (execution-driven mode) and a calibrated synthetic generator that
// reproduces the per-benchmark operand dynamics of SPEC CINT2000 as
// characterised in the paper (trace-driven mode).
package trace

import (
	"halfprice/internal/isa"
	"halfprice/internal/vm"
)

// DynInst is one dynamic instruction: the oracle record the pipeline
// replays. The timing model never needs register *values* — only operand
// identities, control outcomes and effective addresses.
type DynInst struct {
	Seq     uint64
	PC      uint64
	Inst    isa.Inst
	NextPC  uint64
	EffAddr uint64 // loads/stores
	Taken   bool   // branches
}

// Stream produces dynamic instructions in program order. Next reports
// ok=false when the stream is exhausted.
type Stream interface {
	Next() (DynInst, bool)
}

// SliceStream replays a pre-built slice of dynamic instructions.
type SliceStream struct {
	insts []DynInst
	pos   int
}

// NewSliceStream wraps insts.
func NewSliceStream(insts []DynInst) *SliceStream { return &SliceStream{insts: insts} }

// Next returns the next instruction.
func (s *SliceStream) Next() (DynInst, bool) {
	var d DynInst
	ok := s.NextInto(&d)
	return d, ok
}

// NextInto writes the next instruction into d, or reports false and
// leaves d alone at the end of the slice.
func (s *SliceStream) NextInto(d *DynInst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*d = s.insts[s.pos]
	s.pos++
	return true
}

// FromExec converts a functional-simulator record.
func FromExec(e vm.Exec) DynInst {
	return DynInst{Seq: e.Seq, PC: e.PC, Inst: e.Inst, NextPC: e.NextPC, EffAddr: e.EffAddr, Taken: e.Taken}
}

// VMStream drives a functional machine and streams its executed
// instructions, stopping at HALT, a trap, or after Max instructions
// (0 = unlimited). A trap ends the stream; Err reports it.
type VMStream struct {
	m   *vm.Machine
	max uint64
	n   uint64
	err error
}

// NewVMStream wraps a machine. max bounds the stream length (0 = until
// halt).
func NewVMStream(m *vm.Machine, max uint64) *VMStream { return &VMStream{m: m, max: max} }

// Next executes and returns one instruction.
func (s *VMStream) Next() (DynInst, bool) {
	var d DynInst
	ok := s.NextInto(&d)
	return d, ok
}

// NextInto executes one instruction and writes it into d, or reports
// false and leaves d alone once the stream has ended.
func (s *VMStream) NextInto(d *DynInst) bool {
	if s.err != nil || s.m.Halted || (s.max > 0 && s.n >= s.max) {
		return false
	}
	rec, err := s.m.Step()
	if err != nil {
		s.err = err
		return false
	}
	s.n++
	*d = FromExec(rec)
	return true
}

// Err returns the trap that ended the stream, if any.
func (s *VMStream) Err() error { return s.err }

// Collect drains up to max instructions from a stream into a slice
// (max 0 = everything).
func Collect(s Stream, max int) []DynInst {
	var out []DynInst
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		d, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, d)
	}
}
