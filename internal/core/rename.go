package core

import (
	"civect/internal/ci"
	"civect/internal/isa"
)

// renameStage decodes, renames and dispatches up to DecodeWidth
// instructions from the fetch buffer. This is where the paper's
// mechanism engages: CRP mask tracking and control-independence
// selection (§2.3.2), stridedPC propagation through the rename map,
// SRSMT validation of previously vectorized instructions (§2.3.4),
// squash-reuse matching (ci-iw), and the vectorization triggers
// (§2.3.3).
func (p *Proc) renameStage() {
	for n := 0; n < p.cfg.DecodeWidth && p.fetchLen() > 0; n++ {
		if p.fetchFront().readyAt > p.cycle {
			return // still in the decode stages
		}
		if !p.tryRename(p.fetchFront()) {
			return
		}
		p.fetchPop()
	}
}

// renameHazard classifies the structural hazard refusing to rename an
// instruction with metadata im: the window, the LSQ, or the rename
// register pool. It is the single definition shared by tryRename and
// the fast-forward engine's renameBlocked — the skip-inertness proof
// depends on the two never drifting apart.
type renameHazard int

const (
	hazardNone renameHazard = iota
	hazardWindow
	hazardLSQ
	hazardRegs
)

func (p *Proc) renameHazardFor(im *instrMeta) renameHazard {
	if p.robCount >= len(p.rob) {
		return hazardWindow
	}
	if im.isMem() && len(p.lsq) >= p.cfg.LSQSize {
		return hazardLSQ
	}
	if im.hasDest() {
		need := 1
		if p.cfg.Mode.Vectorizes() {
			need += p.cfg.RenameRegHeadroom
		}
		if p.rf.FreeCount() < need {
			return hazardRegs
		}
	}
	return hazardNone
}

func (p *Proc) tryRename(f *fetchedInstr) bool {
	in := p.prog.At(f.pc)
	im := p.metaAt(f.pc)

	switch p.renameHazardFor(im) {
	case hazardRegs:
		// With an empty window nothing will ever commit to free a
		// register: replica storage has strangled the pipeline.
		// Reclaim idle entries rather than deadlocking. (With a
		// non-empty window, commits release registers naturally.)
		if p.robCount == 0 {
			p.reclaimIdleEntries()
		}
		return false
	case hazardWindow, hazardLSQ:
		return false
	}
	dest, hasDest := im.dest, im.hasDest()

	p.seq++
	idx := p.robAlloc()
	e := &p.rob[idx]
	e.seq = p.seq
	e.pc = int32(f.pc)
	e.in = in
	e.state = stWaiting
	e.physDest = -1
	e.predTaken = f.predTaken
	e.histSnapshot = f.histSnapshot
	e.hasDest = hasDest
	e.logDest = dest
	p.Stats.Fetched++
	if p.tracer != nil {
		p.tracer.OnTraceRename(p.cycle, e.seq, e.pc)
	}

	srcs := im.srcRegs()
	e.nsrc = uint8(len(srcs))
	var srcSnap [2]renEntry
	for i, r := range srcs {
		srcSnap[i] = p.ren[r]
		e.srcPhys[i] = p.ren[r].phys
		e.srcWriterSeq[i] = p.ren[r].writerSeq
	}

	// CRP tracking and control-independence selection (ModeCI/ModeCIIW).
	if p.nrbq != nil {
		p.crp.NoteFetch(f.pc, dest, hasDest)
		e.afterCRP = p.crp.Valid && p.crp.Reached
		if e.afterCRP && p.crp.Independent(srcs) {
			e.ciSelected = true
			e.ciEpisode = p.crp.Episode
			p.Stats.CISelected++
			p.episodeSelected = true
			if p.cfg.Mode == ModeCI {
				// Select the strided loads in the backward slice for
				// speculative vectorization (set the S flag, §2.3.2).
				for _, r := range srcs {
					for _, lpc := range p.strided(&p.ren[r]) {
						if se := p.sp.Lookup(lpc); se != nil {
							se.S = true
						}
					}
				}
			}
		}
		// The control-independent region runs from the re-convergent
		// point to the next conditional branch (Figure 1 boxes I11-I14);
		// selection stops there.
		if e.afterCRP && im.isCondBr() {
			p.crp.Deactivate()
		}
		// NRBQ maintenance: branches open a new write-mask region;
		// destinations accumulate into the newest region.
		if im.isCondBr() {
			p.nrbq.PushBranch(e.seq, uint64(f.pc), ci.EstimateReconvergence(p.prog, f.pc))
		} else if hasDest {
			p.nrbq.NoteDest(dest)
		}
	}

	// Squash reuse (ModeCIIW): a control-independent wrong-path result
	// kept across the last recovery can be reused if the operands still
	// come from the same dynamic producers.
	if p.iwLive > 0 && hasDest {
		if recs, head := p.iwTable[f.pc], p.iwHead[f.pc]; head < len(recs) && recs[head].nsrc == int(e.nsrc) {
			r := recs[head]
			match := true
			for i := 0; i < int(e.nsrc); i++ {
				if e.srcWriterSeq[i] == r.writerSeq[i] {
					continue
				}
				// The recorded producer may itself have been reused:
				// its correct-path reincarnation produced the same
				// value, so the chain remains valid.
				if rm := p.iwRemapped(r.writerSeq[i]); rm != 0 && rm == e.srcWriterSeq[i] {
					continue
				}
				match = false
				break
			}
			if match {
				p.iwHead[f.pc]++
				p.iwLive--
				p.iwRemapFrom = append(p.iwRemapFrom, r.seq)
				p.iwRemapTo = append(p.iwRemapTo, e.seq)
				e.reuseIW = true
				e.value = r.value
				p.episodeReused = true
			}
		}
	}

	// SRSMT validation (ModeCI/ModeVect, §2.3.4).
	if p.srsmt != nil && !e.reuseIW && hasDest && !im.isControl() {
		if ent := p.srsmt.Lookup(uint64(f.pc)); ent != nil {
			switch p.tryValidate(e, ent, srcSnap[:e.nsrc]) {
			case valOK:
				if e.ciSelected {
					p.episodeReused = true
				}
			case valFail:
				p.Stats.ValidationFails++
				p.invalidateEntry(ent)
			case valNoReplica:
				// Batch exhausted: execute normally, keep the entry.
			}
		}
	}

	// Taint tracking for the commit dirty-flag: a reused result, or any
	// source register still carrying an unverified reused value, makes
	// this instruction's commit recompute architecturally; everything
	// else retires on its issue-time result (commit.go).
	e.tainted = e.validated || e.reuseIW
	for i := 0; i < int(e.nsrc); i++ {
		if srcSnap[i].dirty {
			e.tainted = true
		}
	}

	// Rename the destination.
	if hasDest {
		phys, ok := p.rf.Alloc()
		if !ok {
			// FreeCount was checked above; this cannot happen.
			panic("core: rename register vanished")
		}
		e.physDest = int32(phys)
		e.oldRen = p.ren[dest]
		nre := renEntry{phys: int32(phys), writerSeq: e.seq, writerPC: int32(f.pc), dirty: e.tainted}
		if e.validated {
			// Figure 7: validated instances set the V/S bit and the Seq
			// field so dependents can vectorize and validate.
			nre.vec = true
			nre.vecPC = uint64(f.pc)
			nre.vecGen = e.valGen
		}
		p.propagateStridedPCs(&nre, f.pc, in, srcSnap[:e.nsrc])
		p.ren[dest] = nre
	}

	// Vectorization trigger for dependents (§2.3.3). Loads are
	// vectorized at commit, where their architectural address anchors
	// the replica sequence exactly (see maybeVectorizeLoad).
	if p.srsmt != nil && !e.validated && !e.reuseIW && !im.isLoad() &&
		hasDest && !im.isControl() {
		p.maybeVectorizeArith(f.pc, in, srcSnap[:e.nsrc], int(e.physDest), e.seq)
	}

	// Dispatch.
	switch {
	case e.reuseIW:
		e.state = stDone
		e.executed = true
		p.writeReg(int(e.physDest), e.value)
	case e.validated:
		e.state = stValidPend
		e.valSince = p.cycle
		p.validPend = append(p.validPend, waitRef{idx: idx, seq: e.seq})
	case in.Op == isa.OpNop || in.Op == isa.OpHalt || im.isJump():
		// Nothing to execute: jumps are resolved at fetch (direct
		// targets), nop and halt produce nothing.
		e.state = stDone
		e.executed = true
	default:
		if im.isMem() {
			p.lsq = append(p.lsq, idx)
			if im.isStore() {
				p.storeDispatch(e.seq)
			}
		}
		p.enqueueWaiting(idx, e)
	}
	return true
}

// iwRemapped returns the correct-path reincarnation recorded for a
// captured wrong-path producer seq, or 0 when there is none (dynamic
// seqs start at 1). The remap is small — one pair per reuse since the
// last capture — so a linear scan beats a map here.
func (p *Proc) iwRemapped(seq uint64) uint64 {
	for i, from := range p.iwRemapFrom {
		if from == seq {
			return p.iwRemapTo[i]
		}
	}
	return 0
}

// propagateStridedPCs fills nre's stridedPC list (§2.3.2): loads with a
// confident stride predictor entry start a list with their own PC;
// arithmetic instructions propagate the union of their sources' lists,
// capped at StridedPCsPerEntry. The union is built in-place and stored
// in a pooled stride-pool slot; nothing escapes to the heap.
func (p *Proc) propagateStridedPCs(nre *renEntry, pc int, in isa.Instr, snap []renEntry) {
	if p.metaAt(pc).isLoad() {
		if se := p.sp.Lookup(uint64(pc)); se != nil && se.Confident() && se.Stride != 0 {
			p.Stats.StridedPCsSum++
			p.Stats.StridedPCsCount++
			nre.strideRef = p.stridePC.alloc()
			p.stridePC.lists[nre.strideRef][0] = uint64(pc)
			nre.nStrided = 1
		}
		return
	}
	// Fast paths: no strided source, or a single strided source whose
	// list (already deduplicated and capped when it was built) is the
	// union. The branches stay separate so the source snapshots never
	// flow into a stored slice — that would make every rename's stack
	// snapshot escape to the heap.
	na, nb := 0, 0
	if len(snap) > 0 {
		na = int(snap[0].nStrided)
	}
	if len(snap) > 1 {
		nb = int(snap[1].nStrided)
	}
	switch {
	case na == 0 && nb == 0:
		return
	case nb == 0:
		p.finishStridedPCs(nre, p.strided(&snap[0]))
		return
	case na == 0:
		p.finishStridedPCs(nre, p.strided(&snap[1]))
		return
	}
	// The union counts every distinct PC for the Figure 4 average, even
	// beyond the propagation cap.
	u := append(p.pcScratch[:0], p.strided(&snap[0])...)
	for _, lpc := range p.strided(&snap[1]) {
		dup := false
		for _, have := range u {
			if have == lpc {
				dup = true
				break
			}
		}
		if !dup {
			u = append(u, lpc)
		}
	}
	p.pcScratch = u[:0]
	p.finishStridedPCs(nre, u)
}

// finishStridedPCs records the union statistics and stores the capped
// list in a fresh stride-pool slot owned by the rename entry.
func (p *Proc) finishStridedPCs(nre *renEntry, u []uint64) {
	p.Stats.StridedPCsSum += uint64(len(u))
	p.Stats.StridedPCsCount++
	if len(u) > p.cfg.StridedPCsPerEntry {
		u = u[:p.cfg.StridedPCsPerEntry]
	}
	nre.strideRef = p.stridePC.alloc()
	nre.nStrided = uint8(copy(p.stridePC.lists[nre.strideRef][:], u))
}
