package main

import (
	"math/rand"

	"civect/sim"
)

// workCounts sums the simulator's deterministic work counters over the
// sessions of one run. A change that only speeds up the simulator must
// leave every one of them identical for the same seed.
type workCounts struct {
	committed, cycles, fetched, squashedBP                   uint64
	replicas, episodes, reuse, valFails, valFailAddr         uint64
	l1iMisses, l1dAccesses, l1dMisses, l2Misses, mispredicts uint64
	regInUse                                                 float64
	sessions                                                 int
}

func (w *workCounts) add(st *sim.Stats) {
	w.committed += st.Committed
	w.cycles += st.Cycles
	w.fetched += st.Fetched
	w.squashedBP += st.SquashedBP
	w.replicas += st.ReplicasDispatched
	w.episodes += st.EpisodesSelected
	w.reuse += st.CommittedReuse
	w.valFails += st.ValidationFails
	w.valFailAddr += st.ValFailAddr
	w.l1iMisses += st.L1I.Misses
	w.l1dAccesses += st.L1D.Accesses
	w.l1dMisses += st.L1D.Misses
	w.l2Misses += st.L2.Misses
	w.mispredicts += st.Mispredicts
	w.regInUse += st.RegAvgInUse
	w.sessions++
}

// report adds the counters as per-layer metrics. regfile.avg_in_use is
// the mean over sessions of each session's average, not a sum.
func (w *workCounts) report(r *report) {
	n := w.sessions
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"core.committed", w.committed},
		{"core.cycles", w.cycles},
		{"core.fetched", w.fetched},
		{"core.squashed_bp", w.squashedBP},
		{"ci.replicas_dispatched", w.replicas},
		{"ci.episodes_selected", w.episodes},
		{"ci.committed_reuse", w.reuse},
		{"ci.validation_fails", w.valFails},
		{"ci.valfail_addr", w.valFailAddr},
		{"cache.l1i_misses", w.l1iMisses},
		{"cache.l1d_accesses", w.l1dAccesses},
		{"cache.l1d_misses", w.l1dMisses},
		{"cache.l2_misses", w.l2Misses},
		{"bpred.mispredicts", w.mispredicts},
	} {
		r.add(c.name, "count", float64(c.v), n)
	}
	if n > 0 {
		r.add("regfile.avg_in_use", "regs", w.regInUse/float64(n), n)
	}
	if w.replicas > 0 {
		r.add("ci.useful_ratio", "ratio", float64(w.reuse)/float64(w.replicas), n)
	}
}

// newRand returns the generator everything a run draws comes from, so
// the same seed gives the same inputs.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
