package sim_test

import (
	"context"
	"errors"
	"testing"

	"civect/sim"
)

// sweepPoints is a representative sweep slice: several distinct
// configurations, one exact duplicate (the coalescing case), across
// modes.
func sweepPoints(budget uint64) []sim.PointOpts {
	return []sim.PointOpts{
		{sim.WithMode(sim.Scalar), sim.WithInstrBudget(budget)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(budget)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(budget), sim.WithRegs(512)},
		{sim.WithMode(sim.Vect), sim.WithInstrBudget(budget)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(budget)}, // duplicate of point 1
		{sim.WithMode(sim.CIIW), sim.WithInstrBudget(budget)},
	}
}

// collect sweeps the set and returns results indexed by point, failing
// the test on any point error.
func collect(t *testing.T, s *sim.Set) []*sim.Result {
	t.Helper()
	results := make([]*sim.Result, s.Len())
	for pr := range s.Sweep(context.Background()) {
		if pr.Err != nil {
			t.Errorf("point %d: %v", pr.Index, pr.Err)
		}
		if pr.Result == nil {
			t.Fatalf("point %d: nil result", pr.Index)
		}
		if results[pr.Index] != nil {
			t.Fatalf("point %d delivered twice", pr.Index)
		}
		results[pr.Index] = pr.Result
	}
	return results
}

// TestSetValidatesEagerly proves NewSet surfaces every invalid input
// at construction: nil workload, empty point list, and per-point
// option or configuration errors (naming the failing point).
func TestSetValidatesEagerly(t *testing.T) {
	w := mustLoad(t, "gcc")
	if _, err := sim.NewSet(nil, sim.PointOpts{}); err == nil {
		t.Error("nil workload must fail")
	}
	if _, err := sim.NewSet(w); err == nil {
		t.Error("empty point list must fail")
	}
	bad := []sim.PointOpts{
		{sim.WithMode(sim.CI)},
		{sim.WithPorts(0)},
	}
	if _, err := sim.NewSet(w, bad...); err == nil {
		t.Error("invalid point option must fail NewSet")
	}
	patch := []sim.PointOpts{
		{sim.WithConfigPatch(func(c *sim.Config) { c.PhysRegs = 8 })},
	}
	if _, err := sim.NewSet(w, patch...); err == nil {
		t.Error("invalid point configuration must fail NewSet")
	}
	if _, err := sim.NewSet(w, sim.PointOpts{sim.WithTraceLevel(sim.TraceCommits)}); err == nil {
		t.Error("trace level without a trace writer must fail NewSet")
	}
}

// TestSweepMatchesSessions is the façade-level differential: every
// point of a sweep must produce statistics bit-identical to a Session
// built with the same options. Each configuration is built on the
// storage of the one before it, so the points change mode and the
// geometry of the window, register file, caches, predictors and SRSMT
// in both directions; the last point duplicates point 1 from well
// past the first eight distinct configurations.
func TestSweepMatchesSessions(t *testing.T) {
	w := mustLoad(t, "gcc")
	const budget = 8_000
	points := append(sweepPoints(budget),
		sim.PointOpts{sim.WithMode(sim.WideBus), sim.WithInstrBudget(budget), sim.WithRegs(128), sim.WithPorts(2)},
		sim.PointOpts{sim.WithMode(sim.CI), sim.WithInstrBudget(budget), sim.WithRegs(0)},
		sim.PointOpts{sim.WithMode(sim.Vect), sim.WithInstrBudget(budget), sim.WithConfigPatch(func(c *sim.Config) {
			c.Hier.L2.SizeBytes = 64 << 10
			c.Hier.L3.SizeBytes = 512 << 10
			c.GshareEntries = 1 << 12
			c.SRSMTSets, c.SRSMTAssoc = 16, 2
			c.StrideSets = 64
			c.MBSSets = 16
		})},
		sim.PointOpts{sim.WithMode(sim.CI), sim.WithInstrBudget(budget), sim.WithRegs(512), sim.WithReplicas(8)},
		sim.PointOpts{sim.WithMode(sim.CIIW), sim.WithInstrBudget(budget), sim.WithRegs(128)},
		sim.PointOpts{sim.WithMode(sim.Vect), sim.WithInstrBudget(budget), sim.WithSpecMem(768)},
		sim.PointOpts{sim.WithMode(sim.CI), sim.WithInstrBudget(budget)}, // duplicate of point 1
	)

	want := make([]sim.Stats, len(points))
	for i, opts := range points {
		sess, err := sim.New(w, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Stats
	}

	set, err := sim.NewSet(w, points...)
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, set)
	for i, res := range results {
		if res.Partial {
			t.Errorf("point %d: unexpectedly partial", i)
		}
		if res.Stats != want[i] {
			t.Errorf("point %d: sweep stats diverge from a Session run", i)
		}
	}
	// Coalesced points share one simulation, and so its wall time.
	if last := results[len(results)-1]; last.NsPerOp != results[1].NsPerOp {
		t.Errorf("duplicate of point 1 was simulated again (%d ns vs %d ns)", last.NsPerOp, results[1].NsPerOp)
	}
}

// TestSweepLaneHardError gives one point an unreachable cycle bound so
// its lane fails: that point reports its error with a nil Result, and
// the lanes after it, built on the failed lane's storage, still match
// their Sessions.
func TestSweepLaneHardError(t *testing.T) {
	w := mustLoad(t, "gcc")
	points := []sim.PointOpts{
		{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
		{sim.WithMode(sim.CI), sim.WithConfigPatch(func(c *sim.Config) { c.MaxCycles = 64 })},
		{sim.WithMode(sim.Vect), sim.WithInstrBudget(5_000)},
	}
	set, err := sim.NewSet(w, points...)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for pr := range set.Sweep(context.Background()) {
		seen++
		if pr.Index == 1 {
			if pr.Err == nil || pr.Result != nil {
				t.Errorf("bounded point: result=%v err=%v, want nil result and an error", pr.Result, pr.Err)
			}
			continue
		}
		if pr.Err != nil || pr.Result == nil {
			t.Fatalf("point %d: result=%v err=%v", pr.Index, pr.Result, pr.Err)
		}
		sess, err := sim.New(w, points[pr.Index]...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if pr.Result.Stats != want.Stats {
			t.Errorf("point %d: diverges from its Session beside a failed sibling", pr.Index)
		}
	}
	if seen != set.Len() {
		t.Errorf("%d points reported, want %d", seen, set.Len())
	}
}

// TestSetRun proves the blocking convenience returns results in point
// order.
func TestSetRun(t *testing.T) {
	w := mustLoad(t, "mcf")
	set, err := sim.NewSet(w, sweepPoints(4_000)...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := set.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != set.Len() {
		t.Fatalf("%d results, want %d", len(results), set.Len())
	}
	for i, res := range results {
		if res == nil {
			t.Errorf("point %d: nil result", i)
		}
	}
}

// TestSweepObserverPoint proves a point with an observer runs (as an
// individual session), fires its hooks, and matches the others
// bit-identically.
func TestSweepObserverPoint(t *testing.T) {
	w := mustLoad(t, "gcc")
	var obs countingObserver
	points := []sim.PointOpts{
		{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000)},
		{sim.WithMode(sim.CI), sim.WithInstrBudget(5_000), sim.WithObserver(&obs, 1_000)},
	}
	set, err := sim.NewSet(w, points...)
	if err != nil {
		t.Fatal(err)
	}
	results := collect(t, set)
	if obs.progress == 0 {
		t.Error("observer point must fire progress hooks")
	}
	if results[0].Stats != results[1].Stats {
		t.Error("observer point diverges from its plain twin")
	}
}

// TestSweepCancellation cancels a sweep up front: every point must
// deliver the context error, running points with partial well-formed
// results.
func TestSweepCancellation(t *testing.T) {
	w := mustLoad(t, "gcc")
	set, err := sim.NewSet(w, sweepPoints(0)...) // no budget: runs to halt
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen := 0
	for pr := range set.Sweep(ctx) {
		seen++
		if !errors.Is(pr.Err, context.Canceled) {
			t.Errorf("point %d: err = %v, want context.Canceled", pr.Index, pr.Err)
		}
		if pr.Result != nil && !pr.Result.Partial {
			t.Errorf("point %d: canceled result not marked partial", pr.Index)
		}
	}
	if seen != set.Len() {
		t.Errorf("%d points reported, want %d", seen, set.Len())
	}
}

// TestSetSingleUse proves a second Sweep yields every point an error
// wrapping ErrSessionEnded.
func TestSetSingleUse(t *testing.T) {
	w := mustLoad(t, "gcc")
	set, err := sim.NewSet(w, sim.PointOpts{sim.WithInstrBudget(1_000)})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, set)
	seen := 0
	for pr := range set.Sweep(context.Background()) {
		seen++
		if !errors.Is(pr.Err, sim.ErrSessionEnded) {
			t.Errorf("point %d: err = %v, want ErrSessionEnded", pr.Index, pr.Err)
		}
	}
	if seen != set.Len() {
		t.Errorf("%d points reported, want %d", seen, set.Len())
	}
}

// TestBatchRunSet runs a ten-point set through a one-worker batch
// while another goroutine runs a session on the same batch: the set
// holds one slot for the whole sweep, so the two never overlap, and
// every point matches a plain Set.Run bit for bit. A caller cancelled
// while waiting for the slot gets ctx.Err() and an unswept set.
func TestBatchRunSet(t *testing.T) {
	w := mustLoad(t, "gcc")
	var points []sim.PointOpts
	for _, m := range []sim.Mode{sim.Scalar, sim.WideBus, sim.CI, sim.CIIW, sim.Vect} {
		for _, regs := range []int{256, 512} {
			points = append(points, sim.PointOpts{sim.WithMode(m), sim.WithRegs(regs), sim.WithInstrBudget(3_000)})
		}
	}
	newSet := func() *sim.Set {
		t.Helper()
		set, err := sim.NewSet(w, points...)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	want, err := newSet().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	b := sim.NewBatch(1)
	other := mustLoad(t, "gzip")
	done := make(chan error, 1)
	go func() {
		_, err := b.Run(context.Background(), other, sim.WithMode(sim.CI), sim.WithInstrBudget(20_000))
		done <- err
	}()
	got, err := b.RunSet(context.Background(), newSet())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("concurrent session: %v", err)
	}
	if n := b.MaxConcurrent(); n != 1 {
		t.Errorf("one-worker batch observed %d in flight", n)
	}
	for i := range want {
		if got[i] == nil || got[i].Stats != want[i].Stats {
			t.Errorf("point %d: RunSet stats diverge from Set.Run", i)
		}
	}

	// Hold the only slot, then cancel a RunSet queued behind it.
	release := make(chan struct{})
	gate := newGateObserver(release)
	held := make(chan error, 1)
	go func() {
		_, err := b.Run(context.Background(), other, sim.WithInstrBudget(5_000), sim.WithObserver(gate, 500))
		held <- err
	}()
	<-gate.started
	ctx, cancel := context.WithCancel(context.Background())
	set := newSet()
	queued := make(chan error, 1)
	go func() {
		res, err := b.RunSet(ctx, set)
		if res != nil {
			err = errors.New("a cancelled RunSet returned results")
		}
		queued <- err
	}()
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Errorf("RunSet cancelled while waiting: err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("slot-holding session: %v", err)
	}
	if _, err := set.Run(context.Background()); err != nil {
		t.Errorf("a set whose RunSet was cancelled before it started must stay runnable: %v", err)
	}
}
