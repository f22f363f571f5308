package ci

import (
	"math/bits"

	"civect/internal/isa"
)

// OperandKind classifies how a replicated instruction's source operand
// is identified in the SRSMT (the paper's seq1/seq2 fields: "identify
// the instructions that compute the source operands if they have been
// vectorized, or the value of the scalar operand otherwise").
type OperandKind uint8

const (
	// OperandNone marks an unused operand slot.
	OperandNone OperandKind = iota
	// OperandScalar is a scalar operand captured by value at
	// vectorization time; every replica uses the same value.
	OperandScalar
	// OperandVec is an operand produced by another vectorized
	// instruction; replica k reads the producer entry's replica k.
	OperandVec
	// OperandSelf is a recurrence: replica k reads this entry's own
	// replica k-1 (replica 0 uses the architectural value captured in
	// Value), e.g. the accumulator in Figure 1's I11.
	OperandSelf
)

// OperandRef is one seq1/seq2 slot.
type OperandRef struct {
	Kind OperandKind
	// Value is the captured scalar (OperandScalar) or the seed of a
	// recurrence (OperandSelf).
	Value uint64
	// PC and Gen identify the producer SRSMT entry for OperandVec; Gen
	// guards against the producer entry being reallocated.
	PC  uint64
	Gen uint64
	// Prod caches the producer's table way for OperandVec so the
	// per-cycle replica input resolution skips the set scan. Ways are
	// fixed storage, so the pointer stays valid; Valid+Gen detect
	// reallocation exactly as a Lookup would.
	Prod *Entry
	// Base is the producer's Decode cursor at the time this entry was
	// created: consumer replica k reads the producer's absolute replica
	// Base+k, which keeps the two instruction streams aligned.
	Base int
}

// ReplicaState tracks one speculative instance through the pipeline.
type ReplicaState uint8

const (
	// ReplicaWaiting sits in the issue queue waiting for operands,
	// a functional unit, or a cache port.
	ReplicaWaiting ReplicaState = iota
	// ReplicaIssued is executing.
	ReplicaIssued
	// ReplicaDone has produced its value.
	ReplicaDone
	// ReplicaFailed could not produce a value (producer entry died);
	// validating against it fails.
	ReplicaFailed
)

// Replica is one speculative instance of a vectorized instruction.
// Replica slots form a ring buffer indexed by absolute instance number;
// Abs identifies which absolute instance currently occupies the slot.
type Replica struct {
	State ReplicaState
	// Abs is the absolute replica index occupying this ring slot.
	Abs int
	// Dest is the physical register (monolithic mode) or speculative
	// data memory position holding the result; -1 when the storage has
	// been released.
	Dest int
	// Value is the computed result (also kept here so validation can
	// proceed when the storage is the slow speculative memory).
	Value uint64
	// Addr is the memory address a load replica reads.
	Addr uint64
	// DoneAt is the cycle the value becomes available.
	DoneAt uint64
}

// TurnHeader is the per-way arbitration fast-path block of an SRSMT
// entry: everything the worklist turn (replicaTickEvent) reads to
// decide whether a listed entry has actionable work, packed into a
// dense side-array parallel to the way array (SoA split). One header
// is ~3 cache lines smaller than the full Entry, and consecutive ways'
// headers are adjacent, so the per-cycle walk over the listed entries
// touches a fraction of the lines the AoS layout cost.
//
// Headers are owned by the table: NewSRSMT allocates one per way and
// each Entry embeds a pointer to its own, fixed for the way's lifetime
// (field access promotes through the embedding, so pipeline code reads
// e.ActiveMask exactly as before the split).
type TurnHeader struct {
	Valid bool
	// SeedCaptured marks an OperandSelf seed value stored (in
	// Src1/Src2 .Value), SeedBroken that the seed register was
	// squashed before capture; SeedPhys below is the register watched
	// while neither is set (-1 when there is no pending seed).
	SeedCaptured bool
	SeedBroken   bool
	// Listed reports whether this incarnation is currently enqueued on
	// the pipeline's active-entry worklist. Idle entries are parked off
	// the list and re-inserted in Stamp order when cursor movement or a
	// wakeup creates work, so arbitration order is identical to
	// scanning every entry every cycle.
	Listed bool
	// Idle counts consecutive arbitration turns with nothing
	// actionable; the event-driven scheduler parks an entry only after
	// a few of them, so entries that bounce between idle and woken
	// every cycle (the steady commit-refill rhythm) keep their listing
	// instead of paying a sorted re-insertion per wake. Purely a
	// scheduling-cost knob: an idle listed turn and a parked entry are
	// observationally identical.
	Idle uint8
	// NSrc is Instr's source-operand count, precomputed so replica
	// issue does not re-derive it every attempt.
	NSrc uint8
	// Gen distinguishes successive allocations of the same table way so
	// stale cross-entry references can be detected.
	Gen uint64
	// ActiveMask mirrors Pending per ring slot (bit i covers
	// Replicas[i]) so the scan visits only actionable slots. Valid for
	// rings of at most 64 slots; larger rings fall back to a full scan.
	ActiveMask uint64
	// BlockedMask holds Waiting slots parked on an operand event (their
	// producer replica, producer allocation, or recurrence seed is not
	// resolved yet). Blocked slots are skipped by the per-cycle scan and
	// re-armed into ActiveMask by Unblock when the event fires; a slot
	// is in at most one of the two masks, and Pending covers both. Only
	// the event-driven scheduler blocks slots; the naive reference
	// re-attempts them every cycle.
	BlockedMask uint64
	// IssuedMask mirrors the Issued slots within ActiveMask, and
	// NextDone lower-bounds the earliest cycle one of them can retire.
	// Together they let the event-driven scheduler skip the turns of an
	// entry that is only waiting out functional-unit or cache latency —
	// the remaining poll the wakeup chains cannot remove. Maintained by
	// the pipeline (issue, settle, overwrite); meaningless to the naive
	// reference.
	IssuedMask uint64
	NextDone   uint64
	// Issue counts replicas issued but not yet finished executing.
	Issue int
	// Pending counts allocated ring slots in the Waiting or Issued
	// states — the slots the per-cycle replica scan can still act on.
	// The pipeline maintains it at every state transition so an entry
	// whose replicas are all Done/Failed can be skipped in O(1).
	Pending int
	// NRegs is the batch size: how many replicas the entry keeps ahead
	// of the Decode cursor. The ring Replicas holds 2·NRegs slots so
	// that consumed-but-uncommitted replicas survive for recovery
	// replay ("in the case that not enough free registers are
	// available ... a lower number of replicas or none at all are
	// created").
	NRegs int
	// Cursors count dynamic instances of the instruction since the
	// entry was created, so replica abs k always lines up with the
	// k-th instance after the creator even when some instances find no
	// replica and execute normally.
	//
	// Decode advances on every decoded instance (validated or not);
	// Commit on every committed instance; Alloc is one past the newest
	// allocated replica (indices skipped by Decode are never
	// allocated — they stay holes).
	Decode   int
	Commit   int
	Alloc    int
	SeedPhys int
	// Stamp is the creation order of this incarnation — the worklist
	// arbitration order activateEntry re-inserts at.
	Stamp uint64
}

// Entry is one SRSMT entry (Figure 6): the replicated instruction, its
// replica set and consumption cursors, operand identities, the DAEC
// counter and the address range of load replicas (§2.4.3).
//
// The arbitration fast path (the worklist turn header and the wakeup
// bookkeeping) lives in the embedded *TurnHeader — a packed side-array
// owned by the table (SoA split); per-validation and per-creation
// fields stay in the entry body.
type Entry struct {
	*TurnHeader

	// IsLoad marks load entries (address-sequence replicas).
	IsLoad bool

	Replicas []Replica

	// Consumers chains the entries whose OperandVec inputs read this
	// entry's replicas: when a replica here settles (or the allocation
	// frontier advances, or the entry dies), the pipeline wakes them so
	// their blocked replicas re-attempt arbitration. Stale incarnations
	// are dropped lazily on wake and compacted by AddConsumer.
	Consumers []ConsumerRef

	PC    uint64
	Instr isa.Instr

	// Stride is the predicted stride a vectorized load was created
	// with; validation requires it to keep on being the same.
	Stride int64
	// BatchBase is the architectural address the current replica batch
	// extends from (replica k reads BatchBase + Stride·(k+1)).
	BatchBase uint64

	Src1, Src2 OperandRef

	// CreatorSeq is the dynamic sequence number of the instance that
	// created the entry; only younger instances move the cursors.
	CreatorSeq uint64
	// DAEC is the Dead Association Elimination Counter (§2.4.2).
	DAEC int

	// HasRange marks RangeLo/RangeHi as meaningful (load entries).
	HasRange         bool
	RangeLo, RangeHi uint64

	// Episode attributes the entry to the CRP episode that selected it
	// (reuse statistics, Figure 5).
	Episode uint64

	// way is this entry's fixed index in the table's way array, set at
	// construction and preserved across incarnations; it backs the
	// table's validity bitmap.
	way int32

	lru uint64
}

// Deallocatable reports whether the entry can be reclaimed: no
// validation in progress and no replica executing (§2.3.3).
func (e *Entry) Deallocatable() bool {
	h := e.TurnHeader
	return h.Decode == h.Commit && h.Issue == 0
}

// Slot returns the ring slot for absolute replica index abs, or nil
// when the slot has been reused for a different absolute index. The
// ring size is a power of two (InitRing), so the index is a mask, not
// a division.
func (e *Entry) Slot(abs int) *Replica {
	if abs < 0 || len(e.Replicas) == 0 {
		return nil
	}
	r := &e.Replicas[abs&(len(e.Replicas)-1)]
	if r.Abs != abs {
		return nil
	}
	return r
}

// slotBit returns slot's position in the ring masks. (The &63 keeps
// the shift in range for >64-slot rings, whose masks are unused.)
func (e *Entry) slotBit(slot *Replica) uint64 {
	return 1 << (uint(slot.Abs) & uint(len(e.Replicas)-1) & 63)
}

// Settle retires a pending (Waiting/Issued, possibly blocked) slot into
// a terminal state, keeping the Pending counter and both ring masks
// coherent. Every transition out of Waiting/Issued must go through
// here — hand-rolled bookkeeping at call sites is how they desync.
func (e *Entry) Settle(slot *Replica, st ReplicaState) {
	// The header pointer is hoisted into a local here (and in every
	// other multi-access hot path): a store through *TurnHeader could
	// alias the embedded pointer field for all the compiler knows, so
	// without the local every access would reload e.TurnHeader.
	h := e.TurnHeader
	slot.State = st
	h.Pending--
	b := e.slotBit(slot)
	h.ActiveMask &^= b
	h.BlockedMask &^= b
	h.IssuedMask &^= b
}

// Block parks a Waiting slot on an operand event: it leaves the
// scanned ActiveMask until Unblock re-arms it.
func (e *Entry) Block(slot *Replica) {
	h := e.TurnHeader
	b := e.slotBit(slot)
	h.ActiveMask &^= b
	h.BlockedMask |= b
}

// MarkIssued records a slot's transition to Issued in the issued mask.
func (e *Entry) MarkIssued(slot *Replica) { e.IssuedMask |= e.slotBit(slot) }

// Unblock re-arms every blocked slot for arbitration and returns the
// mask of slots it moved.
func (e *Entry) Unblock() uint64 {
	h := e.TurnHeader
	m := h.BlockedMask
	h.ActiveMask |= m
	h.BlockedMask = 0
	return m
}

// ConsumerRef pins one consumer-entry incarnation on a producer's
// wakeup chain; Gen detects the consumer way being recycled.
type ConsumerRef struct {
	Ent *Entry
	Gen uint64
}

// Live reports whether the chained incarnation still exists.
func (c ConsumerRef) Live() bool {
	h := c.Ent.TurnHeader
	return h.Valid && h.Gen == c.Gen
}

// AddConsumer chains consumer c to e's wakeup list. Dead incarnations
// are compacted once the list grows past the table's worst case, so a
// long-lived producer feeding a frequently recycled consumer way
// cannot grow the chain without bound.
func (e *Entry) AddConsumer(c *Entry) {
	if len(e.Consumers) >= 16 {
		live := e.Consumers[:0]
		for _, r := range e.Consumers {
			if r.Live() {
				live = append(live, r)
			}
		}
		e.Consumers = live
	}
	e.Consumers = append(e.Consumers, ConsumerRef{Ent: c, Gen: c.Gen})
}

// InitRing sizes the replica ring to at least n slots, rounded up to a
// power of two so Slot can mask instead of divide, reusing the backing
// array left behind by the way's previous incarnation when it is large
// enough.
func (e *Entry) InitRing(n int) {
	size := 1
	for size < n {
		size <<= 1
	}
	if cap(e.Replicas) >= size {
		e.Replicas = e.Replicas[:size]
	} else {
		e.Replicas = make([]Replica, size)
	}
	for i := range e.Replicas {
		e.Replicas[i] = Replica{Abs: -1, Dest: -1}
	}
	h := e.TurnHeader
	h.ActiveMask = 0
	h.BlockedMask = 0
	h.IssuedMask = 0
	h.NextDone = 0
}

// CoversAddr reports whether addr falls in the entry's replica address
// range (the §2.4.3 store coherence check).
func (e *Entry) CoversAddr(addr uint64) bool {
	return e.Valid && e.HasRange && addr >= e.RangeLo && addr <= e.RangeHi
}

// SRSMT is the Scalar Register Set Map Table: set-associative, indexed
// by the PC of the vectorized instruction (Table 1: 64 sets, 4-way).
type SRSMT struct {
	sets  int
	assoc int
	ways  []Entry
	// headers is the ways' packed TurnHeader side-array (SoA split):
	// headers[i] is ways[i].TurnHeader for the way's whole lifetime.
	headers []TurnHeader
	clock   uint64
	gen     uint64
	// present is a PC-indexed bitmap of valid entries (creation checks
	// Lookup first, so a PC maps to at most one way). Lookup consults it
	// before scanning the set: the pipeline probes the table for every
	// committed and renamed instruction, and almost all probes miss.
	present []uint64
	// valid is a way-indexed bitmap of valid entries, so the whole-table
	// walks the pipeline performs at every recovery (OnRecovery,
	// ForEachValid) skip straight to the handful of live ways — in the
	// exact way-index order a full scan would visit, which release-order
	// determinism depends on.
	valid []uint64
}

// NewSRSMT builds the table.
func NewSRSMT(sets, assoc int) *SRSMT { return RenewSRSMT(nil, sets, assoc) }

// RenewSRSMT returns a table in exactly the state NewSRSMT(sets, assoc)
// builds, reusing spent's way storage (replica rings and consumer
// chains included, emptied) when the geometry matches. spent may be
// nil; it must not be used afterwards.
func RenewSRSMT(spent *SRSMT, sets, assoc int) *SRSMT {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("ci: SRSMT sets must be a positive power of two")
	}
	if assoc <= 0 {
		panic("ci: SRSMT associativity must be positive")
	}
	t := spent
	if t == nil || t.sets != sets || t.assoc != assoc {
		t = &SRSMT{
			sets: sets, assoc: assoc,
			ways:    make([]Entry, sets*assoc),
			headers: make([]TurnHeader, sets*assoc),
			valid:   make([]uint64, (sets*assoc+63)/64),
		}
	}
	for i := range t.ways {
		e := &t.ways[i]
		*e = Entry{
			TurnHeader: &t.headers[i],
			Replicas:   e.Replicas[:0],
			Consumers:  e.Consumers[:0],
			way:        int32(i),
		}
	}
	clear(t.headers)
	clear(t.valid)
	t.present = nil
	t.clock, t.gen = 0, 0
	return t
}

func (t *SRSMT) set(pc uint64) []Entry {
	s := int(pc) & (t.sets - 1)
	return t.ways[s*t.assoc : (s+1)*t.assoc]
}

// Lookup returns the valid entry for pc, or nil.
func (t *SRSMT) Lookup(pc uint64) *Entry {
	w := pc >> 6
	if w >= uint64(len(t.present)) || t.present[w]&(1<<(pc&63)) == 0 {
		return nil
	}
	// The validity probe reads the packed header array directly: the
	// set's headers share a cache line, where the full Entry bodies
	// span several each.
	base := (int(pc) & (t.sets - 1)) * t.assoc
	for i := base; i < base+t.assoc; i++ {
		if t.headers[i].Valid && t.ways[i].PC == pc {
			return &t.ways[i]
		}
	}
	return nil
}

// markPresent sets or clears pc's presence bit.
func (t *SRSMT) markPresent(pc uint64, on bool) {
	w := pc >> 6
	if w >= uint64(len(t.present)) {
		if !on {
			return
		}
		grown := make([]uint64, max(2*len(t.present), int(w)+8))
		copy(grown, t.present)
		t.present = grown
	}
	if on {
		t.present[w] |= 1 << (pc & 63)
	} else {
		t.present[w] &^= 1 << (pc & 63)
	}
}

// Touch refreshes the entry's LRU stamp.
func (t *SRSMT) Touch(e *Entry) {
	t.clock++
	e.lru = t.clock
}

// AllocCandidate returns the way to use for a new entry at pc: an
// invalid way if one exists, else the LRU deallocatable way, else nil
// ("If no entry can be deallocated, the instruction is not vectorized").
// When the returned entry is Valid, the caller must release the
// resources it owns before reinitialising it via Init.
func (t *SRSMT) AllocCandidate(pc uint64) *Entry {
	ways := t.set(pc)
	var victim *Entry
	for i := range ways {
		if !ways[i].Valid {
			return &ways[i]
		}
	}
	for i := range ways {
		if ways[i].Deallocatable() {
			if victim == nil || ways[i].lru < victim.lru {
				victim = &ways[i]
			}
		}
	}
	return victim
}

// Init (re)initialises a way returned by AllocCandidate for pc with a
// fresh generation, returning the entry. The previous incarnation's
// replica ring storage is kept for InitRing to reuse.
func (t *SRSMT) Init(e *Entry, pc uint64, in isa.Instr) *Entry {
	t.clock++
	t.gen++
	ring := e.Replicas[:0]
	cons := e.Consumers[:0]
	way := e.way
	hdr := e.TurnHeader
	*e = Entry{TurnHeader: hdr, PC: pc, Instr: in, way: way, lru: t.clock}
	*hdr = TurnHeader{Valid: true, Gen: t.gen}
	e.Replicas = ring
	e.Consumers = cons
	t.valid[way>>6] |= 1 << (uint(way) & 63)
	t.markPresent(pc, true)
	return e
}

// Invalidate clears an entry, keeping its replica ring and consumer
// chain storage for the way's next incarnation (both are emptied, so
// no stale wakeup can leak into it). The caller releases owned
// resources and wakes the chained consumers first.
func (t *SRSMT) Invalidate(e *Entry) {
	if e.Valid {
		t.markPresent(e.PC, false)
	}
	ring := e.Replicas[:0]
	cons := e.Consumers[:0]
	way := e.way
	hdr := e.TurnHeader
	*e = Entry{TurnHeader: hdr, way: way}
	*hdr = TurnHeader{}
	e.Replicas = ring
	e.Consumers = cons
	t.valid[way>>6] &^= 1 << (uint(way) & 63)
}

// ForEachValid calls fn for every valid entry in way-index order; fn
// returning false stops the walk. The validity bitmap makes the walk
// proportional to the live entries, not the table size.
func (t *SRSMT) ForEachValid(fn func(*Entry) bool) {
	for w, word := range t.valid {
		for b := word; b != 0; b &= b - 1 {
			i := w<<6 + bits.TrailingZeros64(b)
			if t.headers[i].Valid && !fn(&t.ways[i]) {
				return
			}
		}
	}
}

// OnRecovery performs the §2.4.4 recovery action: for every valid entry
// the commit field is copied into the decode field, rewinding replica
// consumption to the committed point. When countDAEC is set (branch
// misprediction recoveries), the DAEC counter is incremented for
// entries whose decode and commit were already equal and reset
// otherwise (§2.4.2); entries whose DAEC reaches 2 are passed to dead,
// which must release their resources, and are then invalidated.
func (t *SRSMT) OnRecovery(countDAEC bool, dead func(*Entry)) {
	for w, word := range t.valid {
		for b := word; b != 0; b &= b - 1 {
			i := w<<6 + bits.TrailingZeros64(b)
			h := &t.headers[i]
			if !h.Valid {
				continue
			}
			e := &t.ways[i]
			if countDAEC {
				if h.Decode == h.Commit {
					e.DAEC++
				} else {
					e.DAEC = 0
				}
			}
			h.Decode = h.Commit
			if e.DAEC >= 2 && h.Issue == 0 {
				if dead != nil {
					dead(e)
				}
				t.Invalidate(e)
			}
		}
	}
}

// SizeBytes returns the §3.1 accounting: 45 bytes per element (Figure 6
// with 4 replicas and 256 registers), 4 ways × 64 sets × 45 = 11520
// bytes in the paper's configuration.
func (t *SRSMT) SizeBytes() int { return t.sets * t.assoc * 45 }
