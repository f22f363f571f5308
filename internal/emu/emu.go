// Package emu implements the architectural (functional) emulator for the
// ISA. It executes programs one instruction at a time with no timing
// model and serves as the golden reference: every timing-simulator mode
// must commit exactly this architectural behaviour.
package emu

import (
	"fmt"

	"civect/internal/isa"
	"civect/internal/mem"
)

// Step describes the architectural effect of a single executed
// instruction; the timing simulator's tests use it to cross-check
// committed instructions, and trace-driven analyses consume it directly.
// The fields are ordered so a Step packs into 64 bytes, one cache line:
// the sampled pipeline streams millions of them between cores.
type Step struct {
	PC    int
	Instr isa.Instr
	// NextPC is the PC after this instruction (branch-resolved).
	NextPC int
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Value is the register result (loads/ALU) or the stored value.
	Value uint64
	// Taken is set for conditional branches that were taken.
	Taken bool
	// Dest is the destination register when the instruction writes one.
	Dest    isa.Reg
	HasDest bool
}

// CPU is the architectural machine state.
type CPU struct {
	Regs   [isa.NumLogical]uint64
	PC     int
	Mem    *mem.Memory
	Halted bool

	// Executed counts architecturally executed instructions.
	Executed uint64
}

// New returns a CPU with zeroed registers starting at PC 0 over m.
func New(m *mem.Memory) *CPU {
	if m == nil {
		m = mem.New()
	}
	return &CPU{Mem: m}
}

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrLimit = fmt.Errorf("emu: instruction limit reached")

// StepOne executes the instruction at the current PC and advances.
// Calling StepOne on a halted CPU is a no-op returning a Halt step.
func (c *CPU) StepOne(p *isa.Program) Step {
	var s Step
	c.StepInto(p, &s)
	return s
}

// StepInto is StepOne writing its Step into *s, so a caller recording
// a long run of steps can fill a reused buffer in place.
func (c *CPU) StepInto(p *isa.Program, s *Step) {
	in := p.At(c.PC)
	// Field by field, not *s = Step{...}: the composite literal is built
	// on the stack and block-copied, and the copy's wide loads stall on
	// the narrow stores that just built it.
	s.PC, s.Instr, s.NextPC = c.PC, in, c.PC+1
	s.Addr, s.Value = 0, 0
	s.Taken, s.Dest, s.HasDest = false, 0, false
	if c.Halted {
		s.Instr = isa.Instr{Op: isa.OpHalt}
		s.NextPC = c.PC
		return
	}

	ra := c.Regs[in.Ra]
	rb := c.Regs[in.Rb]
	switch in.Op {
	case isa.OpNop:
	case isa.OpMovI:
		s.Value = uint64(in.Imm)
	case isa.OpMov:
		s.Value = ra
	case isa.OpAdd:
		s.Value = ra + rb
	case isa.OpAddI:
		s.Value = ra + uint64(in.Imm)
	case isa.OpSub:
		s.Value = ra - rb
	case isa.OpSubI:
		s.Value = ra - uint64(in.Imm)
	case isa.OpMul:
		s.Value = ra * rb
	case isa.OpDiv:
		if rb == 0 {
			s.Value = 0
		} else {
			s.Value = ra / rb
		}
	case isa.OpAnd:
		s.Value = ra & rb
	case isa.OpOr:
		s.Value = ra | rb
	case isa.OpXor:
		s.Value = ra ^ rb
	case isa.OpShlI:
		s.Value = ra << (uint64(in.Imm) & 63)
	case isa.OpShrI:
		s.Value = ra >> (uint64(in.Imm) & 63)
	case isa.OpSLT:
		if int64(ra) < int64(rb) {
			s.Value = 1
		}
	case isa.OpSLTI:
		if int64(ra) < in.Imm {
			s.Value = 1
		}
	case isa.OpSEQ:
		if ra == rb {
			s.Value = 1
		}
	case isa.OpSEQI:
		if ra == uint64(in.Imm) {
			s.Value = 1
		}
	case isa.OpLd:
		s.Addr = ra + uint64(in.Imm)
		s.Value = c.Mem.Read64(s.Addr)
	case isa.OpSt:
		s.Addr = ra + uint64(in.Imm)
		s.Value = rb
		c.Mem.Write64(s.Addr, rb)
	case isa.OpBEQZ:
		if ra == 0 {
			s.Taken = true
			s.NextPC = in.Target
		}
	case isa.OpBNEZ:
		if ra != 0 {
			s.Taken = true
			s.NextPC = in.Target
		}
	case isa.OpJmp:
		s.Taken = true
		s.NextPC = in.Target
	case isa.OpHalt:
		c.Halted = true
		s.NextPC = c.PC
	}

	if rd, ok := in.WritesReg(); ok {
		c.Regs[rd] = s.Value
		s.Dest, s.HasDest = rd, true
	}
	c.PC = s.NextPC
	c.Executed++
}

// Run executes the program until it halts or maxInstr instructions have
// executed (maxInstr <= 0 means no limit). It returns ErrLimit if the
// budget ran out first.
func (c *CPU) Run(p *isa.Program, maxInstr uint64) error {
	var s Step
	for !c.Halted {
		if maxInstr > 0 && c.Executed >= maxInstr {
			return ErrLimit
		}
		c.StepInto(p, &s)
	}
	return nil
}

// RegChecksum digests the architectural register file; combined with
// Memory.Checksum it identifies the full architectural state.
func (c *CPU) RegChecksum() uint64 {
	var sum uint64
	for i, v := range c.Regs {
		x := (uint64(i)+1)*0x9e3779b97f4a7c15 + v
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		sum += x
	}
	return sum
}
