package core

import (
	"bytes"
	"testing"

	"civect/internal/ci"
	"civect/internal/workload"
)

// Recycle's contract is that a processor built on a spent one's
// storage is the processor NewShared builds: the same checkpoint bytes
// before the first cycle and the same statistics, registers and memory
// after running. These tests pair every recycled build with a fresh
// one over spares that differ in mode and geometry in both directions,
// spares stopped mid-run, and spares whose caches were bulk-loaded.

// smallConfig shrinks every recyclable structure below the defaults.
func smallConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.PhysRegs = 96
	cfg.WindowSize = WindowFor(96)
	cfg.GshareEntries = 1 << 12
	cfg.StrideSets, cfg.StrideAssoc = 64, 2
	cfg.MBSSets, cfg.MBSAssoc = 16, 2
	cfg.SRSMTSets, cfg.SRSMTAssoc = 16, 2
	cfg.Hier.L2.SizeBytes = 64 << 10
	cfg.Hier.L3.SizeBytes = 512 << 10
	return cfg
}

// requireRecycledMatchesFresh recycles spare into cfg and requires the
// result to match a fresh build of cfg before and after a run.
func requireRecycledMatchesFresh(t *testing.T, b *workload.Benchmark, sp *SharedProgram, spare *Proc, cfg Config) {
	t.Helper()
	cfg.MaxInstr = 6000
	image := b.Image()
	fresh, err := NewShared(cfg, sp, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	oldL1D, oldROB := spare.hier.L1D, &spare.rob[0]
	got, err := Recycle(spare, cfg, sp, image)
	if err != nil {
		t.Fatal(err)
	}
	if spare.hier.L1D.Config() == cfg.Hier.L1D && got.hier.L1D != oldL1D {
		t.Error("L1D of the same geometry was not reused")
	}
	if cap(spare.rob) >= cfg.WindowSize && &got.rob[0] != oldROB {
		t.Error("ROB with enough capacity was not reused")
	}
	if !bytes.Equal(got.SaveCheckpoint(image), fresh.SaveCheckpoint(image)) {
		t.Fatal("recycled processor's checkpoint differs from a fresh build's")
	}
	// The freed set's stale epoch stamps are invisible to a checkpoint
	// (it saves the marks equal to the current epoch only) until a later
	// epoch reaches them, so check the storage itself.
	for r, m := range got.freedMark {
		if m != 0 {
			t.Fatalf("freed-set stamp of p%d is %d after recycling, want 0", r, m)
		}
	}
	want := runToEnd(t, fresh)
	have := runToEnd(t, got)
	if *have != *want {
		t.Fatalf("recycled run differs from a fresh one:\nfresh:    %+v\nrecycled: %+v", *want, *have)
	}
	if got.ARF() != fresh.ARF() || got.Mem().Checksum() != fresh.Mem().Checksum() ||
		got.Mem().PagesAllocated() != fresh.Mem().PagesAllocated() {
		t.Fatal("recycled run's architectural state differs from a fresh one's")
	}
}

// spentProc builds cfg and runs it to commit commits (0: to its end).
func spentProc(t *testing.T, b *workload.Benchmark, sp *SharedProgram, cfg Config, commits uint64) *Proc {
	t.Helper()
	cfg.MaxInstr = 8000
	p, err := NewShared(cfg, sp, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if commits == 0 {
		runToEnd(t, p)
	} else {
		runToCommit(t, p, commits)
	}
	return p
}

func TestRecycleMatchesFresh(t *testing.T) {
	b, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ShareProgram(b.Program)
	if err != nil {
		t.Fatal(err)
	}
	naive := DefaultConfig(ModeCI)
	naive.NaiveScheduler = true
	unbounded := DefaultConfig(ModeVect)
	unbounded.PhysRegs = 0
	unbounded.WindowSize = 512
	cases := []struct {
		name         string
		spare, build Config
	}{
		{"same config", DefaultConfig(ModeCI), DefaultConfig(ModeCI)},
		{"ci to scal", DefaultConfig(ModeCI), DefaultConfig(ModeScalar)},
		{"scal to vect", DefaultConfig(ModeScalar), DefaultConfig(ModeVect)},
		{"wb to ci-iw", DefaultConfig(ModeWideBus), DefaultConfig(ModeCIIW)},
		{"larger to smaller", DefaultConfig(ModeCI), smallConfig(ModeCI)},
		{"smaller to larger", smallConfig(ModeVect), DefaultConfig(ModeVect)},
		{"event to naive scheduler", DefaultConfig(ModeCI), naive},
		{"naive to event scheduler", naive, DefaultConfig(ModeCIIW)},
		{"bounded to unbounded registers", DefaultConfig(ModeVect), unbounded},
		{"unbounded to bounded registers", unbounded, DefaultConfig(ModeCI)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireRecycledMatchesFresh(t, b, sp, spentProc(t, b, sp, tc.spare, 0), tc.build)
		})
	}
}

// TestRecycleMidRunSpare recycles a processor stopped with work in
// flight: a non-empty ROB, occupied completion-wheel buckets and live
// SRSMT entries.
func TestRecycleMidRunSpare(t *testing.T) {
	b, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ShareProgram(b.Program)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	cfg.MaxInstr = 8000
	p, err := NewShared(cfg, sp, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	// Step until every structure holds in-flight state at once.
	busy := func() bool {
		wheel := false
		for _, w := range p.wheelOcc {
			wheel = wheel || w != 0
		}
		live := false
		p.srsmt.ForEachValid(func(*ci.Entry) bool { live = true; return false })
		return p.robCount > 0 && wheel && live
	}
	for !busy() {
		if p.halted || p.Stats.Committed >= cfg.MaxInstr {
			t.Fatal("run ended before the ROB, wheel and SRSMT were all occupied")
		}
		p.step()
	}
	requireRecycledMatchesFresh(t, b, sp, p, DefaultConfig(ModeVect))
}

// TestRecycleBulkLoadedSpare recycles processors whose caches and
// predictors were written wholesale: one restored from a checkpoint
// (LoadState) and one given warm state (CopyFrom).
func TestRecycleBulkLoadedSpare(t *testing.T) {
	b, err := workload.Spec("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ShareProgram(b.Program)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeCI)
	warm := spentProc(t, b, sp, cfg, 3000)

	restored, err := RestoreCheckpoint(warm.SaveCheckpoint(b.Image()), sp, b.Image())
	if err != nil {
		t.Fatal(err)
	}
	requireRecycledMatchesFresh(t, b, sp, restored, DefaultConfig(ModeWideBus))

	adopted, err := NewShared(cfg, sp, b.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	h := warm.hier
	if err := adopted.AdoptWarmState(warm.bp, warm.mbs, warm.sp, h.L1I, h.L1D, h.L2, h.L3); err != nil {
		t.Fatal(err)
	}
	requireRecycledMatchesFresh(t, b, sp, adopted, cfg)
}
