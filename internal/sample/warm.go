package sample

import (
	"context"
	"fmt"

	"civect/internal/bpred"
	"civect/internal/cache"
	"civect/internal/core"
	"civect/internal/emu"
	"civect/internal/stride"
)

// Functional warming (the SMARTS discipline): the microarchitectural
// structures with long thermal time constants — the 64K-entry gshare,
// the cache tag arrays, the MBS and stride tables — depend only on the
// committed instruction stream, which the functional pass produces
// exactly. The warmer replays that stream into private copies of the
// structures during fast-forward; at each sample start the warm state
// transplants into the fresh detailed machine (core.AdoptWarmState),
// so the detailed warmup only has to re-fill the short-time-constant
// state (pipeline, SRSMT, wide-bus latches) the warmer cannot model.

// warmer tracks functionally-warmed structures during the emulation
// pass.
type warmer struct {
	g                *bpred.Gshare
	mbs              *bpred.MBS
	sp               *stride.Predictor
	l1i, l1d, l2, l3 *cache.Cache
}

func newWarmer(cfg *core.Config) *warmer {
	return &warmer{
		g:   bpred.NewGshare(cfg.GshareEntries),
		mbs: bpred.NewMBS(cfg.MBSSets, cfg.MBSAssoc),
		sp:  stride.New(cfg.StrideSets, cfg.StrideAssoc),
		l1i: cache.New(cfg.Hier.L1I),
		l1d: cache.New(cfg.Hier.L1D),
		l2:  cache.New(cfg.Hier.L2),
		l3:  cache.New(cfg.Hier.L3),
	}
}

// observe feeds a batch of architecturally executed instructions, in
// stream order, mirroring the detailed machine's training points:
// gshare/MBS train on conditional branch outcomes, the stride predictor
// on committed load addresses, the caches on the fetch and data streams
// with the hierarchy's miss path (L1 miss walks outward).
func (w *warmer) observe(steps []emu.Step) {
	for i := range steps {
		s := &steps[i]
		if hit, _ := w.l1i.Access(uint64(s.PC)*core.InstBytes, false); !hit {
			w.l2.Access(uint64(s.PC)*core.InstBytes, false)
		}
		if s.Instr.IsCondBranch() {
			w.g.Update(uint64(s.PC), s.Taken)
			w.mbs.Update(uint64(s.PC), s.Taken)
			continue
		}
		if s.Instr.IsLoad() {
			w.sp.Observe(uint64(s.PC), s.Addr)
		}
		if s.Instr.IsLoad() || s.Instr.IsStore() {
			write := s.Instr.IsStore()
			if hit, _ := w.l1d.Access(s.Addr, write); !hit {
				if h2, _ := w.l2.Access(s.Addr, write); !h2 {
					w.l3.Access(s.Addr, write)
				}
			}
		}
	}
}

// warmStart is where sample s's detailed warmup begins: warmup
// instructions before its start, clamped at stream start.
func warmStart(s PlanSample, warmup uint64) uint64 {
	if s.Start > warmup {
		return s.Start - warmup
	}
	return 0
}

// advance fast-forwards ps to sample s's warmup start, warming w with
// every instruction on the way. It fails if the stream ends first.
func (w *warmer) advance(ctx context.Context, ps *pass, s PlanSample, warmup uint64) error {
	target := warmStart(s, warmup)
	if err := ps.advance(ctx, target, w.observe); err != nil {
		return err
	}
	if ps.cpu.Executed != target {
		return fmt.Errorf("sample: stream ended at %d before sample start %d (stale plan?)", ps.cpu.Executed, s.Start)
	}
	return nil
}

// adoptInto transplants the warm state into a fresh detailed machine.
func (w *warmer) adoptInto(p *core.Proc) error {
	return p.AdoptWarmState(w.g, w.mbs, w.sp, w.l1i, w.l1d, w.l2, w.l3)
}
