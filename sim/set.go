package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"civect/internal/core"
	"civect/internal/mem"
)

// PointOpts is the option list of one configuration point in a Set:
// exactly the options a single Session would be built with.
type PointOpts []Option

// PointResult pairs one Set point with its outcome, streamed by
// Sweep. Exactly one of Result and Err is meaningful — except on
// mid-sweep cancellation, where a partial Result accompanies the
// context error, lane by lane.
type PointResult struct {
	// Index is the point's position in the NewSet argument list.
	Index int
	// Result is the point's outcome (partial on cancellation).
	Result *Result
	// Err is the point's failure, if any.
	Err error
}

// setPoint is one validated configuration point.
type setPoint struct {
	cfg Config
	// opts re-applies the point's options when it must run as an
	// individual Session (observer or trace points).
	opts PointOpts
	// session marks points that run as individual Sessions: observers
	// and trace journals are per-session side effects, so such points
	// are excluded from waves and result coalescing.
	session bool
}

// Set is a multi-configuration sweep over one workload: the supported
// way to run N configuration points of the same program. Build one
// with NewSet, then stream the results with Sweep (or collect them
// with Run). Compared to building N Sessions, a Set shares the decoded
// program and per-PC metadata across all points and simulates exact
// duplicate configurations once — per-point results are bit-identical
// to individual Sessions.
//
// A Set is single-use and, once swept, sealed. A sweep simulates its
// points one after another on one goroutine; to bound how many sets and
// sessions run at once, run sets through a Batch (Batch.RunSet). Sets
// are not safe for concurrent use (the Sweep result channel is).
type Set struct {
	w      *Workload
	shared *core.SharedProgram
	points []setPoint
	swept  bool
}

// waveWidth is the number of distinct configurations per wave.
const waveWidth = 8

// NewSet builds a sweep set over workload w with one point per option
// list, validating every point eagerly exactly as New would: a nil or
// invalid workload, an invalid option combination or an invalid
// configuration on any point all surface here, so a Set that
// constructs is guaranteed runnable.
func NewSet(w *Workload, points ...PointOpts) (*Set, error) {
	if w == nil {
		return nil, errors.New("sim: nil workload")
	}
	if len(points) == 0 {
		return nil, errors.New("sim: a set needs at least one point")
	}
	shared, err := core.ShareProgram(w.prog)
	if err != nil {
		return nil, err
	}
	s := &Set{w: w, shared: shared, points: make([]setPoint, len(points))}
	for i, opts := range points {
		st := settings{cfg: DefaultConfig(CI)}
		for _, o := range opts {
			if o != nil {
				o(&st)
			}
		}
		if st.err != nil {
			return nil, fmt.Errorf("sim: set point %d: %w", i, st.err)
		}
		if st.traceW == nil && (st.traceLevel != 0 || st.traceWindowed) {
			return nil, fmt.Errorf("sim: set point %d: WithTraceLevel/WithTraceWindow require WithTrace", i)
		}
		if err := st.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: set point %d: %w", i, err)
		}
		s.points[i] = setPoint{
			cfg:     st.cfg,
			opts:    opts,
			session: st.obs != nil || st.traceW != nil,
		}
	}
	return s, nil
}

// Len returns the number of configuration points.
func (s *Set) Len() int { return len(s.points) }

// Workload returns the workload the set sweeps.
func (s *Set) Workload() *Workload { return s.w }

// Run sweeps the set to completion and collects the results in point
// order: the blocking convenience over Sweep. The returned error is
// the first point error in index order (results for the other points
// are still returned, partial ones included).
func (s *Set) Run(ctx context.Context) ([]*Result, error) {
	results := make([]*Result, len(s.points))
	var firstErr error
	firstIdx := len(s.points)
	for pr := range s.Sweep(ctx) {
		results[pr.Index] = pr.Result
		if pr.Err != nil && pr.Index < firstIdx {
			firstErr, firstIdx = pr.Err, pr.Index
		}
	}
	return results, firstErr
}

// sweepUnit is one schedulable piece of a sweep: either a wave of
// distinct-configuration lanes (each lane carrying every point index
// that resolves to its configuration) or a single point that must run
// as an individual Session.
type sweepUnit struct {
	// lanes[i] lists the point indices coalesced onto lane i; the
	// lane simulates points[lanes[i][0]].cfg.
	lanes [][]int
	// single is the session point's index (lanes nil).
	single int
}

// Sweep simulates every point and streams the per-point results over
// the returned channel in completion order; the channel closes once
// all points have finished. Points are grouped into waves of up to 8
// distinct configurations; the waves and session points run in order
// on one goroutine.
// Points whose configurations are exactly equal are simulated once
// per wave and their results fanned out (the simulator is
// deterministic, so this is observationally identical to running
// each); observer and trace points always run as individual sessions.
//
// Cancelling ctx stops the running lanes at their next cycle boundary
// and finalizes the lanes not yet started without simulating them:
// such points deliver partial, well-formed Results together with the
// context error, exactly as Session.Run does. A Set is single-use;
// sweeping again yields every point with an error wrapping
// ErrSessionEnded.
func (s *Set) Sweep(ctx context.Context) <-chan PointResult {
	out := make(chan PointResult, len(s.points))
	if s.swept {
		for i := range s.points {
			out <- PointResult{Index: i, Err: fmt.Errorf("%w: set already swept", ErrSessionEnded)}
		}
		close(out)
		return out
	}
	s.swept = true

	// Partition the points into units: session points run alone;
	// the rest coalesce by exact configuration (first-occurrence
	// order) and fill waves of up to waveWidth lanes.
	var units []sweepUnit
	var wave [][]int
	laneOf := make(map[Config]int, len(s.points))
	flush := func() {
		if len(wave) > 0 {
			units = append(units, sweepUnit{lanes: wave})
			wave = nil
			laneOf = make(map[Config]int, len(s.points))
		}
	}
	for i, pt := range s.points {
		if pt.session {
			units = append(units, sweepUnit{single: i})
			continue
		}
		if li, ok := laneOf[pt.cfg]; ok {
			wave[li] = append(wave[li], i)
			continue
		}
		laneOf[pt.cfg] = len(wave)
		wave = append(wave, []int{i})
		if len(wave) == waveWidth {
			flush()
		}
	}
	flush()

	go func() {
		for _, u := range units {
			s.runUnit(ctx, u, out)
		}
		close(out)
	}()
	return out
}

// runUnit simulates one sweep unit, delivering a PointResult for every
// point index the unit covers. A panic — possible only via
// user-supplied hooks on session points, but guarded for waves too —
// is recovered and delivered as a *PanicError to the unit's
// undelivered points.
func (s *Set) runUnit(ctx context.Context, u sweepUnit, out chan<- PointResult) {
	delivered := make(map[int]bool)
	defer func() {
		if v := recover(); v != nil {
			err := &PanicError{Value: v, Stack: debug.Stack()}
			if u.lanes == nil {
				if !delivered[u.single] {
					out <- PointResult{Index: u.single, Err: err}
				}
				return
			}
			for _, lane := range u.lanes {
				for _, idx := range lane {
					if !delivered[idx] {
						out <- PointResult{Index: idx, Err: err}
					}
				}
			}
		}
	}()

	if u.lanes == nil {
		idx := u.single
		sess, err := New(s.w, s.points[idx].opts...)
		if err != nil {
			delivered[idx] = true
			out <- PointResult{Index: idx, Err: err}
			return
		}
		res, err := sess.Run(ctx)
		delivered[idx] = true
		out <- PointResult{Index: idx, Result: res, Err: err}
		return
	}

	// Build every lane of the wave before running any of them. The
	// built lanes stay reachable until the wave ends, which keeps the
	// live heap large and garbage collection rare. Building each lane
	// only when it starts cut peak RSS of the e2ebench paper-tables
	// workload from ~96 to ~31 MB but cost ~10% throughput, all of it
	// GC pacing (GOGC=400 closed the gap). The data images are all
	// allocated before the pipelines: interleaving the two raised that
	// workload's peak RSS by ~2 MB.
	mems := make([]*mem.Memory, len(u.lanes))
	for li := range mems {
		mems[li] = s.w.newMem()
	}
	procs := make([]*core.Proc, len(u.lanes))
	for li, lane := range u.lanes {
		p, err := core.NewShared(s.points[lane[0]].cfg, s.shared, mems[li])
		if err != nil {
			for _, lane := range u.lanes {
				for _, idx := range lane {
					delivered[idx] = true
					out <- PointResult{Index: idx, Err: err}
				}
			}
			return
		}
		procs[li] = p
	}
	for li, p := range procs {
		t0 := time.Now()
		var stats *core.Stats
		err := ctx.Err()
		if err == nil {
			stats, err = p.RunContext(ctx)
		} else {
			stats = p.Finalize() // never started: an empty partial result
		}
		wall := time.Since(t0)
		cfg := s.points[u.lanes[li][0]].cfg
		for _, idx := range u.lanes[li] {
			delivered[idx] = true
			if stats == nil {
				out <- PointResult{Index: idx, Err: err}
				continue
			}
			st := *stats // each point owns its stats copy
			out <- PointResult{
				Index:  idx,
				Result: newResult(s.w, cfg, &st, err != nil, wall),
				Err:    err,
			}
		}
	}
}
