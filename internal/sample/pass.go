package sample

import (
	"context"

	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/mem"
)

// The full-stream functional pass as a two-stage pipeline. Every such
// pass — Collect's BBV profiling, Run's and CaptureState's warming
// fast-forward — is emulation followed by per-instruction bookkeeping,
// and the bookkeeping costs about as much as the emulation. So the
// calling goroutine emulates, filling batches of steps, while a second
// goroutine consumes the previous batch. The consumer sees every step
// exactly once, in stream order, and each advance joins it before
// returning: whatever the consumer updated is then exactly what a
// sequential emulate-and-observe loop would have left, so profiles,
// warm state, estimates and state files do not depend on how the two
// goroutines were scheduled.

// batchLen is the number of steps per batch. Each handoff can wake the
// other goroutine, so a batch must be long enough to amortize that:
// 1k-step batches ran slower than a sequential loop, 16k–64k-step
// batches all ran at the same speed.
const batchLen = 16 << 10

// ringLen is the number of batch buffers: one being emulated into, one
// being consumed and one queued between them.
const ringLen = 3

// pass is one full-stream functional pass: the emulator, walking the
// workload from instruction 0, and its ring of batch buffers.
type pass struct {
	cpu  *emu.CPU
	prog *isa.Program
	// free holds the buffers not in flight. Its capacity is ringLen, so
	// the consumer's return of a buffer never blocks.
	free chan []emu.Step
}

// newPass starts a pass over prog on a clone of image (nil: empty
// memory); image itself is never mutated.
func newPass(prog *isa.Program, image *mem.Memory) *pass {
	var m *mem.Memory
	if image != nil {
		m = image.Clone()
	}
	ps := &pass{cpu: emu.New(m), prog: prog, free: make(chan []emu.Step, ringLen)}
	for i := 0; i < ringLen; i++ {
		ps.free <- make([]emu.Step, batchLen)
	}
	return ps
}

// advance emulates until the pass has executed target instructions or
// the program has halted, handing every step to consume on a second
// goroutine, batch by batch in stream order. It returns only after
// consume has seen every step emulated, on every path, so the caller
// may then read what consume wrote. ctx is checked on entry and before
// each batch; on cancellation the steps already emulated are still
// consumed and ctx's error is returned. When there is nothing to
// emulate, no goroutine is started.
func (ps *pass) advance(ctx context.Context, target uint64, consume func([]emu.Step)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cpu := ps.cpu
	if cpu.Halted || cpu.Executed >= target {
		return nil
	}
	// Sized to the ring: at most ringLen buffers exist, so a send never
	// blocks.
	full := make(chan []emu.Step, ringLen)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range full {
			consume(b)
			ps.free <- b
		}
	}()
	defer func() {
		close(full)
		<-done
	}()
	for !cpu.Halted && cpu.Executed < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := <-ps.free
		b = b[:min(uint64(cap(b)), target-cpu.Executed)]
		n := 0
		for n < len(b) && !cpu.Halted {
			cpu.StepInto(ps.prog, &b[n])
			n++
		}
		full <- b[:n]
	}
	return nil
}
