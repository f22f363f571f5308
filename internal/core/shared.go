package core

import (
	"errors"

	"civect/internal/isa"
	"civect/internal/mem"
)

// SharedProgram is a validated, pre-decoded program that any number of
// processors can simulate concurrently: the static code and the
// per-PC class/operand metadata (instrMeta) are derived once and
// shared read-only. A multi-configuration sweep over one workload
// builds one SharedProgram and hands it to every configuration's
// NewShared instead of re-validating and re-decoding the program per
// session.
type SharedProgram struct {
	prog  *isa.Program
	imeta []instrMeta
}

// ShareProgram validates and pre-decodes prog for sharing across
// processors.
func ShareProgram(prog *isa.Program) (*SharedProgram, error) {
	if prog == nil {
		return nil, errors.New("core: nil program")
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return &SharedProgram{prog: prog, imeta: predecode(prog)}, nil
}

// Program returns the shared static program.
func (sp *SharedProgram) Program() *isa.Program { return sp.prog }

// Len returns the program's static instruction count.
func (sp *SharedProgram) Len() int { return sp.prog.Len() }

// NewShared builds a processor over an already validated and
// pre-decoded program — New without the per-session decode work. The
// processor owns and mutates m at commit (nil m means an empty image);
// the shared program is only read.
func NewShared(cfg Config, sp *SharedProgram, m *mem.Memory) (*Proc, error) {
	if sp == nil {
		return nil, errors.New("core: nil shared program")
	}
	return build(cfg, sp, m)
}
