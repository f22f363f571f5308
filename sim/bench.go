package sim

import (
	"civect/internal/benchfmt"
)

// BenchResult is one row of the benchmark baseline schema: the
// per-mode/per-workload measurement cibench writes to BENCH_core.json
// and Result embeds. The schema is versioned (BenchSchemaVersion).
type BenchResult = benchfmt.Result

// BenchSchemaVersion is the current version of the benchmark result
// JSON schema.
const BenchSchemaVersion = benchfmt.SchemaVersion

// LoadBenchResults reads a benchmark result file (BENCH_core.json or a
// fresh cibench run).
func LoadBenchResults(path string) ([]BenchResult, error) {
	return benchfmt.Load(path)
}

// MarshalBenchResults renders results exactly the way cibench writes
// them, so regenerated baselines diff cleanly.
func MarshalBenchResults(rs []BenchResult) ([]byte, error) {
	return benchfmt.Marshal(rs)
}

// GateBench checks fresh measurements against a committed baseline:
// throughput may regress by at most throughputTol (a fraction; 0.10
// allows a 10% slowdown, speedups never fail) and allocated bytes per
// op grow by at most a fixed 25%, while IPC and reuse fraction must
// match exactly — the simulator is deterministic, so any
// drift there is a semantic change that belongs in a reviewed baseline
// update. It returns one human-readable problem per violated
// expectation (empty: the gate passes).
func GateBench(baseline, fresh []BenchResult, throughputTol float64) []string {
	return benchfmt.Compare(baseline, fresh, benchfmt.GateOptions{ThroughputTolerance: throughputTol})
}
