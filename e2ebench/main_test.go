package main

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

// runTiny runs one workload at test size from the repository root and
// returns its metric lines and parsed result.
func runTiny(t *testing.T, workload string, traced bool, fault string) (string, result) {
	t.Helper()
	c := &config{workload: workload, seed: 7, window: 100 * time.Millisecond, trace: traced, tiny: true, fault: fault}
	var out bytes.Buffer
	if err := run(context.Background(), c, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	return out.String(), res
}

// TestEveryMetricPrinted runs each workload at a tiny size, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// printed with its unit, that the JSON result holds exactly the right
// group, and that nothing failed.
func TestEveryMetricPrinted(t *testing.T) {
	t.Chdir("..")
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-tables", "big-detail", "sampled-ultra", "serve-mix"} {
		for _, traced := range []bool{false, true} {
			out, res := runTiny(t, w, traced, "")
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result has %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: result lacks %s in %s: %+v", w, traced, m.Name, m.Unit, got)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + ` +n=\d+$`)
				if !line.MatchString(out) {
					t.Errorf("%s traced=%v: no metric line for %s with unit %s", w, traced, m.Name, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongOutputCounted injects one wrong output per workload and
// checks that it is counted as a failure and shows in fail_frac.
func TestWrongOutputCounted(t *testing.T) {
	t.Chdir("..")
	for w, fault := range map[string]string{
		"paper-tables":  "cell",     // one cell's stats differ between repetitions
		"big-detail":    "arf",      // one committed register word flipped
		"sampled-ultra": "estimate", // the state-file estimate perturbed by one ulp
		"serve-mix":     "job",      // one job read back as failed
	} {
		_, res := runTiny(t, w, true, fault)
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s with fault %s: correct=%v failed=%d, want exactly one failure", w, fault, res.Correct, res.Failed)
		}
		want := 1 / float64(res.Attempted)
		if got := res.Metrics["fail_frac"].Value; got != want {
			t.Errorf("%s with fault %s: fail_frac = %v, want %v", w, fault, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSelfTimes checks that a layer's self time excludes the part of
// its span its children cover, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Layer: "harness", Parent: -1, Start: 0, End: 100},
		{Layer: "core", Parent: 0, Start: 10, End: 40},
		{Layer: "core", Parent: 0, Start: 30, End: 60},
		{Layer: "ckpt", Parent: 1, Start: 20, End: 25},
	}}
	self := tr.selfTimes()
	for layer, want := range map[string]float64{"harness": 50e-9, "core": 25e-9 + 30e-9, "ckpt": 5e-9} {
		if got := self[layer]; got < want-1e-15 || got > want+1e-15 {
			t.Errorf("self[%s] = %v, want %v", layer, got, want)
		}
	}
}
