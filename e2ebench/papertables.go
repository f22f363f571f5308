package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"civect/internal/harness"
	"civect/internal/workload"
	"civect/sim"
)

// paperTablesInstr is the committed-instruction budget per cell: one
// table set takes under two seconds on two workers, so a run repeats
// it often enough for a steady median.
const paperTablesInstr = 4000

// runPaperTables regenerates all thirteen experiments over the twelve
// base-tier programs the paper's tables are defined on, the way
// `ciexp -exp all` does: a planner dry run, a batched prefetch on at
// most two workers, then table assembly on the primed cache. The
// program set is fixed by the paper, so the seed does not change it.
// Each repetition starts from a fresh harness, so modelled caches start
// empty and nothing is memoized across repetitions.
func runPaperTables(ctx context.Context, c *config, tr *tracer, r *report) error {
	opt := harness.Options{MaxInstr: paperTablesInstr, Workers: 2}
	if c.tiny {
		opt.MaxInstr = 500
	}
	bases := sim.BaseWorkloads()
	var gen []float64
	err := timeSetup(r, 9, func(int) error {
		t0 := time.Now()
		for _, name := range bases {
			sp := tr.begin("workload", "workload.Spec", name, -1)
			_, err := workload.Spec(name)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		gen = append(gen, time.Since(t0).Seconds())
		for _, name := range bases {
			if _, err := sim.Load(name); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	r.add("workload.gen_s.base", "s", median(gen), len(gen))

	exps := harness.Experiments()
	var (
		plan, prefetch, tables, wall, nsPerInstr []float64
		first                                    map[harness.RunSpec]sim.Stats
		firstDigest                              [32]byte
		work                                     workCounts
		cells, maxConc                           int
		elapsed                                  time.Duration
		committedAll                             uint64
		peaks                                    rssPeaks
	)
	for rep := 0; rep < 2 || elapsed < c.window; rep++ {
		id := fmt.Sprintf("rep%d", rep)
		peaks.start()
		root := tr.begin("harness", "table-set", id, -1)
		t0 := time.Now()
		sp := tr.begin("harness", "harness.RunExperiments(planner)", id, root)
		planner := harness.NewPlanner(opt)
		_, err := harness.RunExperiments(planner, exps)
		specs := planner.PlannedSpecs()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		t1 := time.Now()
		h := harness.New(opt)
		sp = tr.begin("harness", "Harness.Prefetch", id, root)
		err = h.Prefetch(specs)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("prefetch: %w", err)
		}
		t2 := time.Now()
		digest := sha256.New()
		for _, e := range exps {
			sp := tr.begin("harness", "Experiment.Run", e.ID, root)
			t, err := e.Run(h)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(digest, t)
		}
		t3 := time.Now()
		tr.end(root)
		peaks.stop()
		if err := ctx.Err(); err != nil {
			return err
		}
		elapsed += t3.Sub(t0)

		// Untimed: read every cell back and compare with the first
		// repetition.
		var committed uint64
		stats := make(map[harness.RunSpec]sim.Stats, len(specs))
		for _, s := range specs {
			st, err := h.Run(s)
			if err != nil {
				return err
			}
			stats[s] = *st
			committed += st.Committed
		}
		var sumDigest [32]byte
		copy(sumDigest[:], digest.Sum(nil))
		if rep == 0 {
			first, firstDigest, cells, maxConc = stats, sumDigest, len(specs), h.MaxConcurrent()
			for _, s := range specs {
				st := stats[s]
				work.add(&st)
			}
		} else {
			if c.fault == "cell" && rep == 1 {
				st := stats[specs[0]]
				st.Committed++
				stats[specs[0]] = st
			}
			r.check(sumDigest == firstDigest && len(specs) == cells, "rep %d: table digest differs from rep 0", rep)
			for _, s := range specs {
				want, ok := first[s]
				r.check(ok && stats[s] == want, "rep %d: cell %s stats differ from rep 0", rep, s.Key())
			}
		}
		plan = append(plan, t1.Sub(t0).Seconds())
		prefetch = append(prefetch, t2.Sub(t1).Seconds())
		tables = append(tables, t3.Sub(t2).Seconds())
		wall = append(wall, t3.Sub(t0).Seconds())
		committedAll += committed
		nsPerInstr = append(nsPerInstr, t2.Sub(t1).Seconds()*float64(opt.Workers)*1e9/float64(committed))
	}
	peaks.report(r)
	n := len(wall)
	// Repetitions vary with how the twelve program sweeps fall on the
	// two workers, so throughput is taken over all of them.
	r.add("minstr_per_s", "Minstr/s", float64(committedAll)/elapsed.Seconds()/1e6, n)
	r.add("answer_p50_ms", "ms", 1e3*median(wall), n)
	r.add("harness.plan_s", "s", median(plan), n)
	r.add("harness.prefetch_s", "s", median(prefetch), n)
	r.add("harness.tables_s", "s", median(tables), n)
	r.add("harness.prefetch_share_pct", "%", 100*sum(prefetch)/sum(wall), n)
	r.add("harness.cells", "count", float64(cells), 1)
	r.add("harness.max_concurrent", "count", float64(maxConc), 1)
	r.add("core.ns_per_instr", "ns", median(nsPerInstr), n)
	work.report(r)
	return nil
}
