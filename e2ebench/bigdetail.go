package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"civect/internal/emu"
	"civect/internal/workload"
	"civect/sim"
)

// bigDetailInstr is each session's committed-instruction budget: long
// enough to run well past the cold-start misses of a multi-MB working
// set, short enough that a pass over every stream and mode fits one
// run.
const bigDetailInstr = 150_000

// runBigDetail runs budget-bound detailed sessions one at a time
// (sim.New then Session.Run, no harness, no lockstep batching) over
// every .big stream in all five modes. The seed orders the sessions;
// each pass covers every (stream, mode) pair, so runs on different
// seeds measure the same work. Every session starts with empty
// modelled caches, and its committed registers are checked against
// the functional emulator after the same number of instructions.
func runBigDetail(ctx context.Context, c *config, tr *tracer, r *report) error {
	streams := sim.BigWorkloads()
	budget := uint64(bigDetailInstr)
	if c.tiny {
		streams, budget = streams[:2], 5_000
	}
	benches := make(map[string]*workload.Benchmark)
	var gen []float64
	err := timeSetup(r, 3, func(int) error {
		t0 := time.Now()
		for _, name := range streams {
			sp := tr.begin("workload", "workload.Spec", name, -1)
			b, err := workload.Spec(name)
			tr.end(sp)
			if err != nil {
				return err
			}
			benches[name] = b
		}
		gen = append(gen, time.Since(t0).Seconds())
		return nil
	}, nil)
	if err != nil {
		return err
	}
	r.add("workload.gen_s.big", "s", median(gen), len(gen))
	loaded := make(map[string]*sim.Workload)
	for _, name := range streams {
		if loaded[name], err = sim.Load(name); err != nil {
			return err
		}
	}

	type session struct {
		stream string
		mode   sim.Mode
	}
	var order []session
	for _, name := range streams {
		for _, m := range sim.Modes() {
			order = append(order, session{name, m})
		}
	}
	newRand(c.seed).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var (
		answers, news     []float64
		elapsed           time.Duration
		work              workCounts
		allocBytes        uint64
		committedTimed    uint64
		modeNs, modeInstr = map[sim.Mode]float64{}, map[sim.Mode]float64{}
		ms0, ms1          runtime.MemStats
		peaks             rssPeaks
	)
	for pass := 0; pass == 0 || elapsed < c.window; pass++ {
		peaks.start()
		for i, s := range order {
			id := fmt.Sprintf("%s/%s", s.stream, s.mode)
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			sp := tr.begin("core", "sim.New", id, -1)
			sess, err := sim.New(loaded[s.stream], sim.WithMode(s.mode), sim.WithInstrBudget(budget))
			tr.end(sp)
			if err != nil {
				return err
			}
			t1 := time.Now()
			sp = tr.begin("core", "Session.Run", id, -1)
			res, err := sess.Run(ctx)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			t2 := time.Now()
			runtime.ReadMemStats(&ms1)
			elapsed += t2.Sub(t0)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			committedTimed += res.Stats.Committed
			answers = append(answers, t2.Sub(t0).Seconds())
			news = append(news, t1.Sub(t0).Seconds())
			modeNs[s.mode] += float64(t2.Sub(t1).Nanoseconds())
			modeInstr[s.mode] += float64(res.Stats.Committed)
			if pass == 0 {
				work.add(&res.Stats)
			}

			// Untimed: the functional emulator's registers after the
			// same committed-instruction count.
			b := benches[s.stream]
			sp = tr.begin("emu", "CPU.Run", id, -1)
			cpu := emu.New(b.NewMem())
			err = cpu.Run(b.Program, res.Stats.Committed)
			tr.end(sp)
			arf := sess.ARF()
			if c.fault == "arf" && pass == 0 && i == 0 {
				arf[1] ^= 1
			}
			r.check((err == nil || errors.Is(err, emu.ErrLimit)) && cpu.Executed == res.Stats.Committed && arf == cpu.Regs,
				"%s: committed registers differ from the emulator after %d instructions", id, res.Stats.Committed)
		}
		peaks.stop()
	}
	peaks.report(r)
	n := len(answers)
	r.add("minstr_per_s", "Minstr/s", float64(committedTimed)/elapsed.Seconds()/1e6, n)
	r.add("answer_p50_ms", "ms", 1e3*median(answers), n)
	r.add("sim.new_ms.p50", "ms", 1e3*median(news), n)
	var ns, instr float64
	for _, m := range sim.Modes() {
		r.add("core.ns_per_instr."+m.String(), "ns", modeNs[m]/modeInstr[m], n/len(sim.Modes()))
		ns += modeNs[m]
		instr += modeInstr[m]
	}
	r.add("core.ns_per_instr", "ns", ns/instr, n)
	r.add("core.alloc_bytes_per_instr", "B", float64(allocBytes)/float64(committedTimed), n)
	work.report(r)
	return nil
}
