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
	return build(cfg, sp, m, nil)
}

// Recycle builds the processor NewShared(cfg, sp, image.Clone())
// builds, on the storage of spent, a processor no longer in use (nil
// for none): a sweep builds each configuration on the previous one's
// caches, predictors, tables, window and data image instead of
// allocating them again. The result is bit-identical to a fresh build
// whatever spent's mode, geometry or state. spent must not be used
// afterwards; image is only read.
func Recycle(spent *Proc, cfg Config, sp *SharedProgram, image *mem.Memory) (*Proc, error) {
	if sp == nil {
		return nil, errors.New("core: nil shared program")
	}
	if spent == nil {
		return build(cfg, sp, image.Clone(), nil)
	}
	spent.mem.CopyFrom(image)
	return build(cfg, sp, spent.mem, spent)
}
