package sim_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"civect/sim"
)

// panicObserver panics once enough instructions have committed: the
// deterministic stand-in for a buggy user hook (or an injected worker
// fault) blowing up inside a running session.
type panicObserver struct{ after uint64 }

func (o *panicObserver) OnCommitBatch(cycle uint64, committed, reused int) {}
func (o *panicObserver) OnCycleJump(from, to uint64)                       {}
func (o *panicObserver) OnProgress(cycle, committed uint64) {
	if committed >= o.after {
		panic("observer exploded")
	}
}

// TestBatchRecoversPanic: a job that panics mid-run must come back as a
// per-job *PanicError — panic value and stack included — while the jobs
// sharing the pool finish normally and the process survives.
func TestBatchRecoversPanic(t *testing.T) {
	b := sim.NewBatch(2)
	w := mustLoad(t, "gcc")

	_, err := b.Run(context.Background(), w,
		sim.WithMode(sim.CI),
		sim.WithInstrBudget(50_000),
		sim.WithObserver(&panicObserver{after: 1_000}, 500),
	)
	if err == nil {
		t.Fatal("panicking job returned nil error")
	}
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking job returned %T (%v), want *sim.PanicError", err, err)
	}
	if got := pe.Value; got != "observer exploded" {
		t.Errorf("PanicError.Value = %v, want the panic value", got)
	}
	if !strings.Contains(string(pe.Stack), "OnProgress") {
		t.Errorf("PanicError.Stack does not show the panicking hook:\n%s", pe.Stack)
	}
	if !strings.Contains(err.Error(), "observer exploded") {
		t.Errorf("Error() = %q, does not name the panic value", err)
	}

	// The pool is still healthy: a normal job on the same batch runs to
	// completion.
	res, err := b.Run(context.Background(), w,
		sim.WithMode(sim.CI), sim.WithInstrBudget(10_000))
	if err != nil {
		t.Fatalf("healthy job after a panicked one: %v", err)
	}
	if res.Partial || res.Stats.Committed < 10_000 {
		t.Errorf("healthy job incomplete: partial=%v committed=%d", res.Partial, res.Stats.Committed)
	}
}

// TestBatchPanicFailsAlone: a job that panics while running
// concurrently with others on the same batch fails alone; every other
// job still completes.
func TestBatchPanicFailsAlone(t *testing.T) {
	b := sim.NewBatch(2)
	w := mustLoad(t, "gcc")
	jobs := map[string][]sim.Option{
		"ok-1": {sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
		"boom": {
			sim.WithMode(sim.CI),
			sim.WithInstrBudget(50_000),
			sim.WithObserver(&panicObserver{after: 1_000}, 500),
		},
		"ok-2": {sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
	}
	type outcome struct {
		res *sim.Result
		err error
	}
	var mu sync.Mutex
	got := map[string]outcome{}
	var wg sync.WaitGroup
	for tag, opts := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := b.Run(context.Background(), w, opts...)
			mu.Lock()
			got[tag] = outcome{res, err}
			mu.Unlock()
		}()
	}
	wg.Wait()
	var pe *sim.PanicError
	if !errors.As(got["boom"].err, &pe) {
		t.Errorf("panicking job: err = %v, want *sim.PanicError", got["boom"].err)
	}
	for _, tag := range []string{"ok-1", "ok-2"} {
		r := got[tag]
		if r.err != nil || r.res == nil || r.res.Partial {
			t.Errorf("%s: err=%v result=%v — a neighbour's panic must not fail this job", tag, r.err, r.res)
		}
	}
}
