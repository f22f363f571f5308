package stride

import (
	"fmt"

	"civect/internal/ckpt"
)

// Checkpoint serialization: the warm stride table, LRU stamps and clock
// included — replacement decisions after a restore must match the
// uninterrupted run's exactly.

// SaveState encodes the predictor.
func (p *Predictor) SaveState(e *ckpt.Encoder) {
	e.Tag("stride")
	e.Int(len(p.ways))
	for i := range p.ways {
		w := &p.ways[i]
		e.U64(w.PC)
		e.U64(w.LastAddr)
		e.I64(w.Stride)
		e.U8(w.Conf)
		e.Bool(w.S)
		e.Bool(w.valid)
		e.U64(w.lru)
	}
	e.U64(p.clock)
}

// LoadState restores state saved from a predictor with the same
// geometry.
func (p *Predictor) LoadState(d *ckpt.Decoder) {
	d.Tag("stride")
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(p.ways) {
		d.Fail("stride geometry mismatch: checkpoint has %d ways, predictor has %d", n, len(p.ways))
		return
	}
	for i := range p.ways {
		w := &p.ways[i]
		w.PC = d.U64()
		w.LastAddr = d.U64()
		w.Stride = d.I64()
		w.Conf = d.U8()
		w.S = d.Bool()
		w.valid = d.Bool()
		w.lru = d.U64()
	}
	p.clock = d.U64()
}

// CopyFrom makes p an exact copy of src's state — every way and the
// LRU clock — as a SaveState/LoadState round trip would, without the
// encoding. The geometries must match.
func (p *Predictor) CopyFrom(src *Predictor) error {
	if src.sets != p.sets || src.assoc != p.assoc {
		return fmt.Errorf("stride geometry mismatch: source is %dx%d, predictor is %dx%d", src.sets, src.assoc, p.sets, p.assoc)
	}
	copy(p.ways, src.ways)
	p.clock = src.clock
	return nil
}
