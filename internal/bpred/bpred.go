// Package bpred implements the branch direction predictor (gshare, Table
// 1: 64K entries of 2-bit counters) and the paper's MBS table
// (Mispredicted Branch Status, §2.3.1), which classifies static branches
// as highly biased (easy) or hard to predict. The control-independence
// scheme is only activated for hard branches.
package bpred

import "math/bits"

// Gshare is a global-history XOR-indexed pattern history table of 2-bit
// saturating counters.
type Gshare struct {
	table   []uint8
	history uint64
	mask    uint64
	histLen uint
}

// NewGshare builds a predictor with the given number of PHT entries
// (must be a power of two; Table 1 uses 64K).
func NewGshare(entries int) *Gshare { return RenewGshare(nil, entries) }

// RenewGshare returns a predictor in exactly the state
// NewGshare(entries) builds, reusing spent's table when it has the
// same entry count. spent may be nil; it must not be used afterwards.
func RenewGshare(spent *Gshare, entries int) *Gshare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: gshare entries must be a positive power of two")
	}
	g := spent
	if g == nil || len(g.table) != entries {
		g = &Gshare{
			table:   make([]uint8, entries),
			mask:    uint64(entries - 1),
			histLen: uint(bits.TrailingZeros(uint(entries))),
		}
	}
	// Weakly taken start avoids a cold-start bias toward not-taken.
	// The table is filled by doubling copies, not a byte at a time.
	g.table[0] = 2
	for n := 1; n < entries; n *= 2 {
		copy(g.table[n:], g.table[:n])
	}
	g.history = 0
	return g
}

func (g *Gshare) index(pc uint64) uint64 {
	return (pc ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update trains the predictor with the resolved direction and shifts the
// global history. Update must be called with the same history state used
// by Predict; the pipeline calls it at branch resolution and repairs the
// history on mispredictions via HistorySnapshot/RestoreHistory.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	c := g.table[i]
	if taken {
		if c < 3 {
			g.table[i] = c + 1
		}
	} else if c > 0 {
		g.table[i] = c - 1
	}
	g.history = ((g.history << 1) | b2u(taken)) & ((1 << g.histLen) - 1)
}

// SpeculativeShift advances the history with a predicted direction at
// fetch; mispredict recovery restores the snapshot taken before the
// shift.
func (g *Gshare) SpeculativeShift(taken bool) {
	g.history = ((g.history << 1) | b2u(taken)) & ((1 << g.histLen) - 1)
}

// TrainAt updates the PHT counter for a branch resolved out of order,
// using the global history captured when the branch was predicted. The
// current (speculative) history register is not touched; fetch-time
// SpeculativeShift and recovery-time RestoreHistory manage it.
func (g *Gshare) TrainAt(pc uint64, taken bool, history uint64) {
	i := (pc ^ history) & g.mask
	c := g.table[i]
	if taken {
		if c < 3 {
			g.table[i] = c + 1
		}
	} else if c > 0 {
		g.table[i] = c - 1
	}
}

// HistorySnapshot returns the current global history register.
func (g *Gshare) HistorySnapshot() uint64 { return g.history }

// RestoreHistory rolls the global history back to a snapshot.
func (g *Gshare) RestoreHistory(h uint64) { g.history = h }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MBS is the Mispredicted Branch Status table: a set-associative table
// indexed by branch PC with a 4-bit saturating up/down counter per entry
// (§2.3.1). The counter is increased by taken and decreased by not-taken
// outcomes when the direction repeats the previous outcome; a direction
// change resets the counter to mid-range. A branch whose counter sits at
// either extreme is highly biased (easy); anything else is considered
// hard to predict, which activates the control-independence scheme.
type MBS struct {
	sets  int
	assoc int
	ways  []mbsEntry
	clock uint64
}

type mbsEntry struct {
	pc      uint64
	valid   bool
	counter uint8 // 0..15
	prev    bool  // previous outcome
	seen    bool  // prev is meaningful
	lru     uint64
}

const (
	mbsMax = 15
	mbsMid = 8
)

// NewMBS builds the table; the paper's configuration is 64 sets, 4-way
// (§3.1: "4 ways * 64 elements per way").
func NewMBS(sets, assoc int) *MBS { return RenewMBS(nil, sets, assoc) }

// RenewMBS returns a table in exactly the state NewMBS(sets, assoc)
// builds, reusing spent's storage when the geometry matches. spent may
// be nil; it must not be used afterwards.
func RenewMBS(spent *MBS, sets, assoc int) *MBS {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("bpred: MBS sets must be a positive power of two")
	}
	if spent == nil || spent.sets != sets || spent.assoc != assoc {
		return &MBS{sets: sets, assoc: assoc, ways: make([]mbsEntry, sets*assoc)}
	}
	clear(spent.ways)
	spent.clock = 0
	return spent
}

func (m *MBS) set(pc uint64) []mbsEntry {
	s := int(pc) & (m.sets - 1)
	return m.ways[s*m.assoc : (s+1)*m.assoc]
}

func (m *MBS) find(pc uint64) *mbsEntry {
	ways := m.set(pc)
	for i := range ways {
		if ways[i].valid && ways[i].pc == pc {
			return &ways[i]
		}
	}
	return nil
}

// Update records a resolved branch outcome.
func (m *MBS) Update(pc uint64, taken bool) {
	m.clock++
	e := m.find(pc)
	if e == nil {
		ways := m.set(pc)
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
		ways[victim] = mbsEntry{pc: pc, valid: true, counter: mbsMid, lru: m.clock}
		e = &ways[victim]
	}
	e.lru = m.clock
	switch {
	case !e.seen || taken == e.prev:
		if taken {
			if e.counter < mbsMax {
				e.counter++
			}
		} else if e.counter > 0 {
			e.counter--
		}
	default:
		e.counter = mbsMid
	}
	e.prev, e.seen = taken, true
}

// Hard reports whether the branch at pc is considered hard to predict.
// Unknown branches are not hard (the scheme stays off until the branch
// shows history). Branches with a saturated counter are highly biased
// and therefore easy.
func (m *MBS) Hard(pc uint64) bool {
	e := m.find(pc)
	if e == nil {
		return false
	}
	return e.counter != 0 && e.counter != mbsMax
}

// SizeBytes returns the storage cost used in the paper's §3.1 accounting
// (8 bytes per element: PC tag plus counter state, rounded as the paper
// does).
func (m *MBS) SizeBytes() int { return m.sets * m.assoc * 8 }
