package sample

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"civect/internal/core"
	"civect/internal/workload"
)

func TestBlockLeaders(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	blockOf, n := blockLeaders(wl.Program)
	if n < 2 {
		t.Fatalf("gcc has %d basic blocks", n)
	}
	if blockOf[0] != 0 {
		t.Fatalf("first instruction not in block 0")
	}
	// Block IDs must be non-decreasing and dense.
	last := 0
	for pc, b := range blockOf {
		if b < last || b > last+1 {
			t.Fatalf("block IDs not dense at pc %d: %d after %d", pc, b, last)
		}
		last = b
	}
	if last != n-1 {
		t.Fatalf("max block %d, want %d", last, n-1)
	}
}

func TestProfileDeterministic(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{IntervalLen: 3_000, MaxInstr: 60_000}
	a, err := Collect(wl.Program, wl.NewMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(wl.Program, wl.NewMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two profiles of the same workload differ")
	}
	if a.TotalInstr != 60_000 {
		t.Fatalf("profiled %d instructions, want 60000", a.TotalInstr)
	}
	if got := len(a.Vectors); got != 20 {
		t.Fatalf("%d intervals, want 20", got)
	}
	var sum uint64
	for _, l := range a.Lengths {
		sum += l
	}
	if sum != a.TotalInstr {
		t.Fatalf("interval lengths sum to %d, want %d", sum, a.TotalInstr)
	}
}

func TestPlanProperties(t *testing.T) {
	wl, err := workload.Spec("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 2_000, MaxInstr: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7, 100} {
		plan := prof.BuildPlan(k)
		if len(plan.Samples) == 0 || len(plan.Samples) > k {
			t.Fatalf("k=%d: %d samples", k, len(plan.Samples))
		}
		var wsum float64
		lastStart := int64(-1)
		for _, s := range plan.Samples {
			wsum += s.Weight
			if int64(s.Start) <= lastStart {
				t.Fatalf("k=%d: samples not sorted by start", k)
			}
			lastStart = int64(s.Start)
			if s.Start != uint64(s.Interval)*prof.IntervalLen {
				t.Fatalf("k=%d: sample start %d inconsistent with interval %d", k, s.Start, s.Interval)
			}
		}
		if math.Abs(wsum-1) > 1e-9 {
			t.Fatalf("k=%d: weights sum to %g", k, wsum)
		}
		// Determinism: rebuilding yields the identical plan.
		again := prof.BuildPlan(k)
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("k=%d: plan not deterministic", k)
		}
	}
}

// TestSampledAccuracy runs the full sampling pipeline and checks the
// stitched estimates against full detailed-run truth: inside the
// reported confidence interval (with a 5%-relative floor — the CI
// quantifies phase diversity and collapses when phases are
// near-identical, while a short run's residual warmup transient puts a
// floor under the achievable bias). Also enforces the cost side:
// detailed simulation must cover at most a quarter of the stream here
// (the ultra-tier CI smoke demands a tenth — longer streams amortize
// the fixed warmup).
//
// The base tier's single-loop benchmarks have near-identical BBVs in
// every interval and never reach steady state over a short run — a
// secular transient sampling cannot capture, so only IPC (which the
// phase-diversity CI does cover) is checked there. The .big benchmark's
// phase rotation is the regime clustering is actually for, and there
// every reported metric must land inside its tolerance.
func TestSampledAccuracy(t *testing.T) {
	cases := []struct {
		bench      string
		total, ivl uint64
		k          int
		warmup     uint64
		allStats   bool // check rate metrics too, not just IPC
	}{
		{"gcc", 120_000, 5_000, 4, 2_000, false},
		{"gcc.big", 400_000, 10_000, 6, 3_000, true},
	}
	for _, tc := range cases {
		wl, err := workload.Spec(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: tc.ivl, MaxInstr: tc.total})
		if err != nil {
			t.Fatal(err)
		}
		plan := prof.BuildPlan(tc.k)
		ccfg := core.DefaultConfig(core.ModeCI)
		est, err := Run(context.Background(), plan, wl.Program, wl.NewMem(), ccfg, tc.warmup)
		if err != nil {
			t.Fatal(err)
		}

		ccfg.MaxInstr = tc.total
		p, err := core.New(ccfg, wl.Program, wl.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		truth, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, estv, ci, truev float64) {
			tol := math.Max(ci, 0.05*math.Abs(truev))
			if math.Abs(estv-truev) > tol {
				t.Errorf("%s: sampled %s %.4f±%.4f vs true %.4f (outside tolerance %.4f)",
					tc.bench, name, estv, ci, truev, tol)
			}
		}
		estIPC, ci := est.IPC()
		check("ipc", estIPC, ci, truth.IPC())
		if tc.allStats {
			check("reuse_frac", est.Stats[2].Mean, est.Stats[2].CI95, truth.ReuseFraction())
			check("bp_mpki", est.Stats[3].Mean, est.Stats[3].CI95,
				1000*float64(truth.Mispredicts)/float64(truth.Committed))
		}
		if est.DetailedInstr*4 > tc.total {
			t.Errorf("%s: detailed simulation covered %d of %d instructions (> 1/4)",
				tc.bench, est.DetailedInstr, tc.total)
		}
		t.Logf("%s: sampled IPC %.4f±%.4f, true %.4f, detailed %d/%d instrs",
			tc.bench, estIPC, ci, truth.IPC(), est.DetailedInstr, tc.total)
	}
}

// TestRunDeterministic proves the full pipeline byte-stable: profile,
// plan and estimate twice and require deep equality (the nodeterm
// analyzer guards the code paths; this guards the numbers).
func TestRunDeterministic(t *testing.T) {
	wl, err := workload.Spec("twolf")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Estimate {
		prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 4_000, MaxInstr: 40_000})
		if err != nil {
			t.Fatal(err)
		}
		est, err := Run(context.Background(), prof.BuildPlan(3), wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 1_000)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sampled runs of the same workload differ")
	}
}

// cancelAfter is a context whose Err starts reporting cancellation on
// its n-th call: a deterministic way to cancel in the middle of a
// functional segment, which polls Err once per batch.
type cancelAfter struct {
	context.Context
	n, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// lateSamplePlan is a one-sample plan whose warmup starts deep in the
// stream, so reaching it is one long functional segment.
func lateSamplePlan(prof *Profile) *Plan {
	last := len(prof.Lengths) - 1
	return &Plan{IntervalLen: prof.IntervalLen, TotalInstr: prof.TotalInstr, K: 1, Samples: []PlanSample{
		{Interval: last, Start: uint64(last) * prof.IntervalLen, Len: prof.Lengths[last], Weight: 1},
	}}
}

// TestRunCanceled proves cancellation surfaces both before the first
// sample and in the middle of a functional segment: a sampled job stops
// within a batch of the cancel, not at the next sample.
func TestRunCanceled(t *testing.T) {
	wl, err := workload.Spec("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 2_000, MaxInstr: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, prof.BuildPlan(3), wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 500); err == nil {
		t.Fatal("canceled run returned no error")
	}

	long, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 50_000, MaxInstr: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	plan := lateSamplePlan(long)
	for _, tc := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"Run", func(ctx context.Context) error {
			_, err := Run(ctx, plan, wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 500)
			return err
		}},
		{"CaptureState", func(ctx context.Context) error {
			_, err := CaptureState(ctx, plan, wl.Program, wl.NewMem(), core.DefaultConfig(core.ModeCI), 500)
			return err
		}},
	} {
		// Call 1 is the check on entering the segment, call 2 the first
		// batch's; cancellation lands before the third of ~60 batches.
		ctx := &cancelAfter{Context: context.Background(), n: 4}
		if err := tc.run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s canceled mid-segment returned %v, want context.Canceled", tc.name, err)
		}
		if ctx.calls != ctx.n {
			t.Errorf("%s polled ctx %d times after it was canceled on call %d", tc.name, ctx.calls, ctx.n)
		}
	}
}

// TestNoGoroutineLeak: Collect, Run and CaptureState start their
// consumer goroutines and join them before returning — on success, on
// a stale-plan error and on cancellation alike.
func TestNoGoroutineLeak(t *testing.T) {
	wl, err := workload.SpecWithIters("gzip", 2000) // halts after ~53k instructions
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	good := prof.BuildPlan(3)
	stale := &Plan{IntervalLen: prof.IntervalLen, TotalInstr: 10 * prof.TotalInstr, K: 1, Samples: []PlanSample{
		{Interval: 99, Start: 2 * prof.TotalInstr, Len: 5_000, Weight: 1},
	}}
	cfg := core.DefaultConfig(core.ModeCI)
	bg := context.Background()
	run := func(ctx context.Context, plan *Plan) error {
		_, err := Run(ctx, plan, wl.Program, wl.NewMem(), cfg, 1_000)
		return err
	}
	capture := func(ctx context.Context, plan *Plan) error {
		_, err := CaptureState(ctx, plan, wl.Program, wl.NewMem(), cfg, 1_000)
		return err
	}
	cases := []struct {
		name    string
		call    func() error
		wantErr bool
	}{
		{"Collect", func() error {
			_, err := Collect(wl.Program, wl.NewMem(), Config{IntervalLen: 5_000})
			return err
		}, false},
		{"Run", func() error { return run(bg, good) }, false},
		{"Run/stale", func() error { return run(bg, stale) }, true},
		{"Run/canceled", func() error { return run(&cancelAfter{Context: bg, n: 3}, stale) }, true},
		{"CaptureState", func() error { return capture(bg, good) }, false},
		{"CaptureState/stale", func() error { return capture(bg, stale) }, true},
		{"CaptureState/canceled", func() error { return capture(&cancelAfter{Context: bg, n: 3}, stale) }, true},
	}
	for _, tc := range cases {
		base := runtime.NumGoroutine()
		if err := tc.call(); (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error: %v", tc.name, err, tc.wantErr)
		}
		// A joined goroutine has finished its work but may not have
		// exited yet; give it a moment to leave the count.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after return, %d before", tc.name, n, base)
		}
	}
}
