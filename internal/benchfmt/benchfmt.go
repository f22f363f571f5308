// Package benchfmt defines the schema of the committed performance
// baseline (BENCH_core.json): per-mode/per-benchmark simulator
// throughput measurements, written by cmd/cibench and gated against by
// cmd/cigate in CI.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// SchemaVersion is the current version of the result schema. The
// committed baseline (BENCH_core.json) stays a bare array of Result
// rows for backward compatibility; richer envelopes (sim.Result)
// carry the version explicitly and bump it on breaking layout
// changes.
const SchemaVersion = 1

// Result is one measurement: simulator speed and allocation behaviour
// for a fresh simulation of Instr committed instructions, plus the
// simulated statistics that must be bit-reproducible.
type Result struct {
	Mode            string  `json:"mode"`
	Bench           string  `json:"bench"`
	Instr           uint64  `json:"sim_instrs_per_run"`
	NsPerOp         int64   `json:"ns_per_op"`
	SimInstrsPerSec float64 `json:"sim_instrs_per_sec"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	IPC             float64 `json:"ipc"`
	ReuseFraction   float64 `json:"reuse_fraction"`
}

// key identifies a measurement across files.
func (r Result) key() string { return r.Bench + "/" + r.Mode }

// Load reads a result file.
func Load(path string) ([]Result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []Result
	if err := json.Unmarshal(blob, &rs); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return rs, nil
}

// Marshal renders results the way cibench writes them.
func Marshal(rs []Result) ([]byte, error) {
	blob, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// AllocTolerance is the fractional growth in bytes_per_op a row may
// show before Compare flags it. Allocation hardly depends on the host,
// so unlike throughput it gets no runner allowance; the margin absorbs
// one-time allocations spread over a different iteration count. It
// catches structural regressions such as a sweep that allocates a new
// machine per lane again.
const AllocTolerance = 0.25

// GateOptions tunes Compare.
type GateOptions struct {
	// ThroughputTolerance is the fractional slowdown in
	// sim_instrs_per_sec allowed before a row is a regression (0.15
	// allows a 15% slowdown). Speedups never fail.
	ThroughputTolerance float64
}

// Compare checks fresh measurements against the committed baseline and
// returns one human-readable problem per violated expectation (empty:
// gate passes). Throughput may regress by at most the tolerance and
// bytes_per_op grow by at most AllocTolerance; IPC
// and reuse fraction must match exactly (the simulator is
// deterministic, so any drift is a semantic change that belongs in a
// reviewed baseline update, not a perf run); both files must measure
// the same (bench, mode, budget) cells.
func Compare(baseline, fresh []Result, opt GateOptions) []string {
	var problems []string
	freshBy := make(map[string]Result, len(fresh))
	for _, r := range fresh {
		if _, dup := freshBy[r.key()]; dup {
			problems = append(problems, fmt.Sprintf("%s: duplicated in fresh results", r.key()))
		}
		freshBy[r.key()] = r
	}
	seen := make(map[string]bool, len(baseline))
	for _, base := range baseline {
		if seen[base.key()] {
			problems = append(problems, fmt.Sprintf("%s: duplicated in baseline", base.key()))
		}
		seen[base.key()] = true
		f, ok := freshBy[base.key()]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from fresh results", base.key()))
			continue
		}
		if f.Instr != base.Instr {
			problems = append(problems, fmt.Sprintf("%s: budget %d differs from baseline %d (simulated stats not comparable)",
				base.key(), f.Instr, base.Instr))
			continue
		}
		if floor := base.SimInstrsPerSec * (1 - opt.ThroughputTolerance); f.SimInstrsPerSec < floor {
			problems = append(problems, fmt.Sprintf("%s: throughput %.0f sim-instrs/s below %.0f (baseline %.0f - %.0f%%)",
				base.key(), f.SimInstrsPerSec, floor, base.SimInstrsPerSec, 100*opt.ThroughputTolerance))
		}
		if ceil := float64(base.BytesPerOp) * (1 + AllocTolerance); float64(f.BytesPerOp) > ceil {
			problems = append(problems, fmt.Sprintf("%s: %d bytes/op above %.0f (baseline %d + %.0f%%)",
				base.key(), f.BytesPerOp, ceil, base.BytesPerOp, 100*AllocTolerance))
		}
		if !exact(f.IPC, base.IPC) {
			problems = append(problems, fmt.Sprintf("%s: IPC %v differs from baseline %v (semantic drift)",
				base.key(), f.IPC, base.IPC))
		}
		if !exact(f.ReuseFraction, base.ReuseFraction) {
			problems = append(problems, fmt.Sprintf("%s: reuse fraction %v differs from baseline %v (semantic drift)",
				base.key(), f.ReuseFraction, base.ReuseFraction))
		}
	}
	for _, r := range fresh {
		if !seen[r.key()] {
			problems = append(problems, fmt.Sprintf("%s: not in baseline (regenerate and commit BENCH_core.json)", r.key()))
		}
	}
	return problems
}

// exact compares the deterministic statistics: bit-equal up to JSON
// round-tripping (which Go's encoding preserves for float64).
func exact(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
