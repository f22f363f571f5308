package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// Batch runs sessions and sweep sets under one shared concurrency
// bound: each Run, Resume or RunSet call holds one worker slot while it
// simulates. It is the single worker pool of the stack: the experiment
// harness (and with it ciexp's -workers flag) and the ciserve daemon
// bound their simulations through a Batch. Safe for concurrent use.
type Batch struct {
	sem     chan struct{}
	running atomic.Int64
	peak    atomic.Int64
}

// NewBatch returns a batch running at most workers sessions or sets at once
// (workers <= 0 uses GOMAXPROCS; 1 fully serializes).
func NewBatch(workers int) *Batch {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Batch{sem: make(chan struct{}, workers)}
}

// MaxConcurrent returns the highest number of sessions and sets that
// have run simultaneously on this batch (never above its workers
// bound).
func (b *Batch) MaxConcurrent() int { return int(b.peak.Load()) }

// PanicError is the per-job error a Batch returns when building or
// running a session panicked (for example in a user-supplied Observer
// hook): the panic is recovered inside the batch so one bad job cannot
// crash the process or the other jobs sharing the pool.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at
	// recovery.
	Stack []byte
}

// Error renders the panic value; the full stack is available via Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: session panicked: %v", e.Value)
}

// Run builds and runs one session within the batch's concurrency
// bound, blocking until a worker slot frees up (or ctx is cancelled
// while waiting). Semantics match Session.Run: on mid-run cancellation
// it returns the partial Result together with ctx.Err(). A panic while
// building or running the session — including one raised by an
// Observer hook — is recovered and returned as a *PanicError instead
// of crashing the process.
func (b *Batch) Run(ctx context.Context, w *Workload, opts ...Option) (*Result, error) {
	return b.run(ctx, func() (*Session, error) { return New(w, opts...) })
}

// Resume is Run for a checkpointed session: it rebuilds the session
// from the checkpoint file (see Resume) within the batch's concurrency
// bound and runs it to completion, with the same cancellation and
// panic-recovery semantics as Run.
func (b *Batch) Resume(ctx context.Context, path string, opts ...Option) (*Result, error) {
	return b.run(ctx, func() (*Session, error) { return Resume(path, opts...) })
}

// RunSet sweeps s to completion (see Set.Run) within the batch's
// concurrency bound: the whole set holds one worker slot, so a sweep
// counts as one worker however many points it has. It blocks until a
// slot frees up; if ctx is cancelled while waiting, it returns
// ctx.Err() without sweeping the set.
func (b *Batch) RunSet(ctx context.Context, s *Set) ([]*Result, error) {
	if err := b.acquire(ctx); err != nil {
		return nil, err
	}
	defer b.release()
	return s.Run(ctx)
}

// acquire claims a worker slot, or returns ctx.Err() if ctx is
// cancelled first, and records the concurrency peak. Every successful
// acquire must be paired with a release.
func (b *Batch) acquire(ctx context.Context) error {
	select {
	case b.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	n := b.running.Add(1)
	for {
		peak := b.peak.Load()
		if n <= peak || b.peak.CompareAndSwap(peak, n) {
			return nil
		}
	}
}

func (b *Batch) release() {
	b.running.Add(-1)
	<-b.sem
}

// run acquires a worker slot, builds the session and runs it, turning
// panics into *PanicError.
func (b *Batch) run(ctx context.Context, build func() (*Session, error)) (res *Result, err error) {
	if err := b.acquire(ctx); err != nil {
		return nil, err
	}
	defer b.release()
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	s, err := build()
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}
