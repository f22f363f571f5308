// Package sample implements checkpointed, SimPoint-style sampled
// simulation: a functional profiling pass splits a workload's dynamic
// instruction stream into fixed-size intervals and summarizes each as a
// basic-block vector (BBV); deterministic k-means clusters the
// intervals; one representative per cluster is then simulated in detail
// (functional fast-forward, detailed warmup, measured sample) and the
// per-cluster measurements are stitched into whole-run estimates with
// confidence intervals.
//
// Everything here is deterministic: profiling follows the emulator's
// instruction stream, clustering uses a fixed hash-seeded projection
// and index-ordered tie-breaking, and no map iteration reaches any
// output. Two runs of the same workload produce byte-identical plans
// and estimates.
package sample

import (
	"context"
	"fmt"
	"math"
	"slices"

	"civect/internal/emu"
	"civect/internal/isa"
	"civect/internal/mem"
)

// Dims is the dimensionality BBVs are random-projected down to before
// clustering, as SimPoint does: the block population can reach tens of
// thousands, but interval similarity survives a ~16x-smaller sketch.
const Dims = 32

// Config tunes the profiling pass.
type Config struct {
	// IntervalLen is the interval size in dynamic instructions.
	IntervalLen uint64
	// MaxInstr bounds the profiled stream (0: run to halt).
	MaxInstr uint64
}

// Profile is the outcome of the profiling pass: one projected BBV per
// interval plus the stream geometry the plan needs.
type Profile struct {
	// IntervalLen is the interval size the profile was taken at.
	IntervalLen uint64
	// TotalInstr is the profiled dynamic instruction count.
	TotalInstr uint64
	// NumBlocks is the static basic-block population.
	NumBlocks int
	// Vectors holds one Dims-dimensional projected, length-normalized
	// BBV per interval. The last interval may cover fewer than
	// IntervalLen instructions (the stream remainder).
	Vectors [][Dims]float64
	// Lengths is each interval's dynamic instruction count.
	Lengths []uint64
}

// blockLeaders computes the static basic-block leader set: instruction
// 0, every branch/jump target, and every instruction following a
// branch, jump or halt. blockOf maps each PC to its block index.
func blockLeaders(prog *isa.Program) (blockOf []int, numBlocks int) {
	n := prog.Len()
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for pc := 0; pc < n; pc++ {
		in := prog.At(pc)
		if in.IsCondBranch() || in.IsJump() {
			if in.Target >= 0 && in.Target < n {
				leader[in.Target] = true
			}
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
		if in.Op == isa.OpHalt && pc+1 < n {
			leader[pc+1] = true
		}
	}
	blockOf = make([]int, n)
	id := -1
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			id++
		}
		blockOf[pc] = id
	}
	return blockOf, id + 1
}

// splitmix64 is the deterministic hash behind the projection matrix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// signMask returns block b's projection row: bit d clear is weight +1
// on dim d, set is −1.
func signMask(b int) uint32 {
	var m uint32
	for d := 0; d < Dims; d++ {
		m |= uint32(splitmix64(uint64(b)<<32|uint64(d))&1) << d
	}
	return m
}

// Profiler accumulates the current interval's raw block counts and
// flushes them as projected vectors at each boundary.
type profiler struct {
	cfg     Config
	blockOf []int
	signs   []uint32 // signMask per block
	counts  []uint64 // raw instr-weighted block counts, current interval
	touched []int    // blocks with a nonzero count, in first-touch order
	inIntvl uint64   // instructions in the current interval
	out     Profile
}

// observe counts a batch of executed instructions, flushing at every
// interval boundary.
func (pr *profiler) observe(steps []emu.Step) {
	for i := range steps {
		b := pr.blockOf[steps[i].PC]
		if pr.counts[b] == 0 {
			pr.touched = append(pr.touched, b)
		}
		pr.counts[b]++
		pr.inIntvl++
		if pr.inIntvl == pr.cfg.IntervalLen {
			pr.flush()
		}
	}
}

// flush projects the interval's counts onto Dims dims. Blocks are
// summed in ascending order, and w·(±1) is exactly ±w, so each vector
// is bit-identical to the dense sum over all blocks.
func (pr *profiler) flush() {
	if pr.inIntvl == 0 {
		return
	}
	var v [Dims]float64
	norm := 1 / float64(pr.inIntvl)
	slices.Sort(pr.touched)
	for _, b := range pr.touched {
		w := float64(pr.counts[b]) * norm
		signs := pr.signs[b]
		for d := 0; d < Dims; d++ {
			if signs>>d&1 == 0 {
				v[d] += w
			} else {
				v[d] -= w
			}
		}
		pr.counts[b] = 0
	}
	pr.touched = pr.touched[:0]
	pr.out.Vectors = append(pr.out.Vectors, v)
	pr.out.Lengths = append(pr.out.Lengths, pr.inIntvl)
	pr.inIntvl = 0
}

// Collect runs the functional emulator over the workload and returns
// per-interval projected BBVs. image is cloned, never mutated.
func Collect(prog *isa.Program, image *mem.Memory, cfg Config) (*Profile, error) {
	if cfg.IntervalLen == 0 {
		return nil, fmt.Errorf("sample: interval length must be positive")
	}
	blockOf, numBlocks := blockLeaders(prog)
	signs := make([]uint32, numBlocks)
	for b := range signs {
		signs[b] = signMask(b)
	}
	pr := &profiler{
		cfg:     cfg,
		blockOf: blockOf,
		signs:   signs,
		counts:  make([]uint64, numBlocks),
		out:     Profile{IntervalLen: cfg.IntervalLen, NumBlocks: numBlocks},
	}
	limit := cfg.MaxInstr
	if limit == 0 {
		limit = math.MaxUint64
	}
	ps := newPass(prog, image)
	// Collect has no context to cancel it, and advance fails only on
	// cancellation.
	_ = ps.advance(context.Background(), limit, pr.observe)
	pr.flush()
	pr.out.TotalInstr = ps.cpu.Executed
	if len(pr.out.Vectors) == 0 {
		return nil, fmt.Errorf("sample: workload executed no instructions")
	}
	return &pr.out, nil
}
