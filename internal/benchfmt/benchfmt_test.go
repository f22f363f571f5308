package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func row(mode, bench string, speed, ipc, reuse float64) Result {
	return Result{Mode: mode, Bench: bench, Instr: 30000,
		SimInstrsPerSec: speed, IPC: ipc, ReuseFraction: reuse}
}

func TestCompareClean(t *testing.T) {
	base := []Result{row("ci", "gcc", 1e6, 1.25, 0.29), row("scal", "gcc", 1.2e6, 1.28, 0)}
	fresh := []Result{row("scal", "gcc", 1.1e6, 1.28, 0), row("ci", "gcc", 0.9e6, 1.25, 0.29)}
	if p := Compare(base, fresh, GateOptions{ThroughputTolerance: 0.15}); len(p) != 0 {
		t.Errorf("clean comparison flagged problems: %v", p)
	}
}

func TestCompareThroughputRegression(t *testing.T) {
	base := []Result{row("ci", "gcc", 1e6, 1.25, 0.29)}
	fresh := []Result{row("ci", "gcc", 0.8e6, 1.25, 0.29)}
	p := Compare(base, fresh, GateOptions{ThroughputTolerance: 0.15})
	if len(p) != 1 || !strings.Contains(p[0], "throughput") {
		t.Errorf("15%% tolerance must flag a 20%% slowdown: %v", p)
	}
	// A generous tolerance passes the same slowdown.
	if p := Compare(base, fresh, GateOptions{ThroughputTolerance: 0.5}); len(p) != 0 {
		t.Errorf("50%% tolerance must pass a 20%% slowdown: %v", p)
	}
	// Speedups never fail.
	fast := []Result{row("ci", "gcc", 5e6, 1.25, 0.29)}
	if p := Compare(base, fast, GateOptions{ThroughputTolerance: 0.15}); len(p) != 0 {
		t.Errorf("speedup flagged: %v", p)
	}
}

func TestCompareAllocCeiling(t *testing.T) {
	base := []Result{row("sweep", "gcc", 1e6, 1.25, 0.29)}
	base[0].BytesPerOp = 2_000_000
	for _, tc := range []struct {
		bytes int64
		flag  bool
	}{{1_000_000, false}, {2_400_000, false}, {2_600_000, true}, {9_000_000, true}} {
		fresh := []Result{base[0]}
		fresh[0].BytesPerOp = tc.bytes
		p := Compare(base, fresh, GateOptions{ThroughputTolerance: 0.15})
		if flagged := len(p) == 1 && strings.Contains(p[0], "bytes/op"); flagged != tc.flag || len(p) > 1 {
			t.Errorf("%d bytes/op against a 2000000 baseline: problems %v, want flagged=%v", tc.bytes, p, tc.flag)
		}
	}
}

func TestCompareExactStats(t *testing.T) {
	base := []Result{row("ci", "gcc", 1e6, 1.25, 0.29)}
	for _, fresh := range [][]Result{
		{row("ci", "gcc", 1e6, 1.2500001, 0.29)},
		{row("ci", "gcc", 1e6, 1.25, 0.291)},
	} {
		p := Compare(base, fresh, GateOptions{ThroughputTolerance: 0.15})
		if len(p) != 1 || !strings.Contains(p[0], "semantic drift") {
			t.Errorf("stat drift must be flagged exactly once: %v", p)
		}
	}
}

func TestCompareCoverage(t *testing.T) {
	base := []Result{row("ci", "gcc", 1e6, 1.25, 0.29), row("ci", "gcc.big", 1e6, 1.1, 0.01)}
	// Missing fresh row.
	p := Compare(base, []Result{row("ci", "gcc", 1e6, 1.25, 0.29)}, GateOptions{})
	if len(p) != 1 || !strings.Contains(p[0], "missing") {
		t.Errorf("missing fresh row: %v", p)
	}
	// Extra fresh row.
	fresh := []Result{row("ci", "gcc", 1e6, 1.25, 0.29), row("ci", "gcc.big", 1e6, 1.1, 0.01),
		row("vect", "gcc", 1e6, 1.2, 0.3)}
	p = Compare(base, fresh, GateOptions{})
	if len(p) != 1 || !strings.Contains(p[0], "not in baseline") {
		t.Errorf("extra fresh row: %v", p)
	}
	// Budget mismatch invalidates the stat comparison.
	changed := []Result{row("ci", "gcc", 1e6, 1.25, 0.29), row("ci", "gcc.big", 1e6, 1.1, 0.01)}
	changed[0].Instr = 50000
	p = Compare(base, changed, GateOptions{})
	if len(p) != 1 || !strings.Contains(p[0], "budget") {
		t.Errorf("budget mismatch: %v", p)
	}
}

func TestLoadMarshalRoundTrip(t *testing.T) {
	rs := []Result{row("ci", "gcc", 1234567.89, 1.2804352464262854, 0.2944411117776445)}
	blob, err := Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != rs[0] {
		t.Errorf("round trip changed the result: %+v vs %+v", got, rs)
	}
	if p := Compare(rs, got, GateOptions{}); len(p) != 0 {
		t.Errorf("round-tripped results must gate clean: %v", p)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file must error")
	}
}
