// Command cigate compares a fresh cibench run against the committed
// performance baseline and exits nonzero on regression, turning
// BENCH_core.json from a passive record into a CI gate.
//
// Throughput (sim-instrs/s) may regress by at most -tol (a fraction;
// the default 0.10 allows 10% for like-for-like local comparisons,
// tight enough to catch a scheduler regression while absorbing
// warm-machine variance. CI passes a larger value because shared
// runners are slower and noisier than the machine that recorded the
// baseline).
// Allocated bytes per op may grow by at most a fixed 25%
// (benchfmt.AllocTolerance): allocation hardly varies by host.
// IPC and reuse fraction must match the baseline exactly: the
// simulator is deterministic, so any drift there is a semantic change
// that belongs in a reviewed baseline update.
//
// Usage:
//
//	cibench -o fresh.json && cigate fresh.json
//	cigate -baseline BENCH_core.json -tol 0.5 fresh.json
package main

import (
	"flag"
	"fmt"
	"os"

	"civect/sim"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_core.json", "committed baseline to gate against")
	tol := flag.Float64("tol", 0.10, "allowed fractional throughput slowdown (0.10 = 10%)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cigate [-baseline BENCH_core.json] [-tol 0.15] fresh.json")
		os.Exit(2)
	}
	if *tol < 0 || *tol >= 1 {
		fmt.Fprintln(os.Stderr, "cigate: -tol must be in [0, 1)")
		os.Exit(2)
	}
	baseline, err := sim.LoadBenchResults(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigate: %v\n", err)
		os.Exit(2)
	}
	fresh, err := sim.LoadBenchResults(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cigate: %v\n", err)
		os.Exit(2)
	}

	problems := sim.GateBench(baseline, fresh, *tol)
	if len(problems) == 0 {
		fmt.Printf("cigate: %d cells within tolerance (throughput -%.0f%%, stats exact)\n",
			len(baseline), 100**tol)
		return
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "cigate: REGRESSION: %s\n", p)
	}
	fmt.Fprintf(os.Stderr, "cigate: %d problem(s) against %s\n", len(problems), *baselinePath)
	os.Exit(1)
}
