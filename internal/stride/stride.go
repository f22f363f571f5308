// Package stride implements the load stride predictor of §2.3.2 /
// Figure 3: a set-associative table indexed by load PC whose entries hold
// the last accessed address, the last observed stride, a 2-bit saturating
// confidence counter (the prediction is trusted when the counter is
// greater than 1) and the S flag marking loads selected for speculative
// vectorization.
package stride

// Entry mirrors Figure 3's fields (PC 64b, last address 64b, stride 64b,
// confidence 2b, S 1b).
type Entry struct {
	PC       uint64
	LastAddr uint64
	Stride   int64
	Conf     uint8 // 0..3; trusted when > 1
	S        bool  // selected for speculative vectorization
	valid    bool
	lru      uint64
}

// Confident reports whether the stride prediction is trusted (§2.3.2:
// "the prediction is trusted when this field has a value greater than 1").
func (e *Entry) Confident() bool { return e.Conf > 1 }

// Predictor is the set-associative stride table; the paper's
// configuration is 256 sets, 4-way (Table 1).
type Predictor struct {
	sets  int
	assoc int
	ways  []Entry
	clock uint64
}

// New builds a predictor with the given geometry.
func New(sets, assoc int) *Predictor { return Renew(nil, sets, assoc) }

// Renew returns a predictor in exactly the state New(sets, assoc)
// builds, reusing spent's storage when the geometry matches. spent may
// be nil; it must not be used afterwards.
func Renew(spent *Predictor, sets, assoc int) *Predictor {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("stride: sets must be a positive power of two")
	}
	if assoc <= 0 {
		panic("stride: associativity must be positive")
	}
	if spent == nil || spent.sets != sets || spent.assoc != assoc {
		return &Predictor{sets: sets, assoc: assoc, ways: make([]Entry, sets*assoc)}
	}
	clear(spent.ways)
	spent.clock = 0
	return spent
}

func (p *Predictor) set(pc uint64) []Entry {
	s := int(pc) & (p.sets - 1)
	return p.ways[s*p.assoc : (s+1)*p.assoc]
}

// Lookup returns the entry for the load at pc, or nil. The entry is
// owned by the predictor; callers may set S through it.
func (p *Predictor) Lookup(pc uint64) *Entry {
	ways := p.set(pc)
	for i := range ways {
		if ways[i].valid && ways[i].PC == pc {
			return &ways[i]
		}
	}
	return nil
}

// Observe trains the predictor with a committed load's effective
// address and returns the entry. A repeated stride bumps confidence; a
// stride change replaces the stride and restarts confidence. Evicting an
// entry drops its S flag (the selection dissolves with the entry, as in
// hardware).
func (p *Predictor) Observe(pc, addr uint64) *Entry {
	p.clock++
	e := p.Lookup(pc)
	if e == nil {
		ways := p.set(pc)
		victim := 0
		for i := range ways {
			if !ways[i].valid {
				victim = i
				break
			}
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
		ways[victim] = Entry{PC: pc, LastAddr: addr, valid: true, lru: p.clock}
		return &ways[victim]
	}
	e.lru = p.clock
	stride := int64(addr - e.LastAddr)
	switch {
	case stride == e.Stride:
		if e.Conf < 3 {
			e.Conf++
		}
	default:
		e.Stride = stride
		e.Conf = 0
	}
	e.LastAddr = addr
	return e
}

// NextAddrs fills dst with the next n predicted addresses
// (last + stride·1 … last + stride·n), the addresses the replica
// instances of a vectorized load will access (§2.3.3).
func (e *Entry) NextAddrs(dst []uint64, n int) []uint64 {
	for k := 1; k <= n; k++ {
		dst = append(dst, e.LastAddr+uint64(e.Stride*int64(k)))
	}
	return dst
}

// SizeBytes returns the §3.1 storage accounting (24 bytes per element:
// PC + last address + stride fields dominate; 4 ways × 256 sets × 24 =
// 24576 bytes in the paper's configuration).
func (p *Predictor) SizeBytes() int { return p.sets * p.assoc * 24 }
