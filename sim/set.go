package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"civect/internal/core"
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
	// are excluded from lane recycling and result coalescing.
	session bool
}

// Set is a multi-configuration sweep over one workload: the supported
// way to run N configuration points of the same program. Build one
// with NewSet, then stream the results with Sweep (or collect them
// with Run). Compared to building N Sessions, a Set shares the decoded
// program and per-PC metadata across all points, simulates exact
// duplicate configurations once, and builds each configuration's
// machine on the storage of the one simulated before it — per-point
// results are bit-identical to individual Sessions.
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

// Sweep simulates every point and streams the per-point results over
// the returned channel in completion order; the channel closes once
// all points have finished. Points whose configurations are exactly
// equal are simulated once and their results fanned out (the
// simulator is deterministic, so this is observationally identical to
// running each). The distinct configurations run one at a time on one
// goroutine, in first-occurrence order, each built just before it runs
// on the storage of the machine simulated before it; observer and trace
// points always run as individual sessions.
//
// Cancelling ctx stops the running lane at its next cycle boundary
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

	// units[u] lists the point indices unit u delivers to: a session
	// point alone, or every point sharing one exact configuration.
	var units [][]int
	unitOf := make(map[Config]int, len(s.points))
	for i, pt := range s.points {
		if !pt.session {
			if u, ok := unitOf[pt.cfg]; ok {
				units[u] = append(units[u], i)
				continue
			}
			unitOf[pt.cfg] = len(units)
		}
		units = append(units, []int{i})
	}

	go func() {
		var spent *core.Proc
		for _, u := range units {
			spent = s.runUnit(ctx, u, spent, out)
		}
		close(out)
	}()
	return out
}

// runUnit simulates one sweep unit, delivering a PointResult for each
// of its point indices, and returns the processor whose storage the
// next lane may recycle (spent again after a session point). A panic —
// possible only via user-supplied hooks on session points, but guarded
// for lanes too — is recovered and delivered as a *PanicError to the
// unit's undelivered points, and the panicked lane's storage is
// dropped.
func (s *Set) runUnit(ctx context.Context, unit []int, spent *core.Proc, out chan<- PointResult) (next *core.Proc) {
	delivered := 0
	deliver := func(pr PointResult) {
		out <- pr
		delivered++
	}
	defer func() {
		if v := recover(); v != nil {
			err := &PanicError{Value: v, Stack: debug.Stack()}
			for _, idx := range unit[delivered:] {
				out <- PointResult{Index: idx, Err: err}
			}
			next = nil
		}
	}()

	pt := s.points[unit[0]]
	if pt.session {
		sess, err := New(s.w, pt.opts...)
		var res *Result
		if err == nil {
			res, err = sess.Run(ctx)
		}
		deliver(PointResult{Index: unit[0], Result: res, Err: err})
		return spent
	}

	p, err := core.Recycle(spent, pt.cfg, s.shared, s.w.image())
	if err != nil {
		for _, idx := range unit {
			deliver(PointResult{Index: idx, Err: err})
		}
		return nil
	}
	t0 := time.Now()
	var stats *core.Stats
	if err = ctx.Err(); err == nil {
		stats, err = p.RunContext(ctx)
	} else {
		stats = p.Finalize() // never started: an empty partial result
	}
	wall := time.Since(t0)
	for _, idx := range unit {
		if stats == nil {
			deliver(PointResult{Index: idx, Err: err})
			continue
		}
		st := *stats // each point owns its stats copy
		deliver(PointResult{
			Index:  idx,
			Result: newResult(s.w, pt.cfg, &st, err != nil, wall),
			Err:    err,
		})
	}
	return p
}
