// Command e2ebench is civect's end-to-end benchmark: one process per
// run measures one named workload from outside the program, through
// the public functions of sim, internal/harness, internal/sample,
// internal/ckpt, internal/serve (over HTTP on loopback) and
// internal/workload, and checks every answer it times.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload paper-tables --seed 1 --seconds 12 --trace 0
//
// Workloads: paper-tables, big-detail, sampled-ultra, serve-mix (see
// e2ebench/README.md for why each exists and which layers it stresses).
// The metric names, units and bounds come from BENCHMARK.json at the
// repository root. Every metric the workload measured is printed as a
// "metric" line with its unit and sample count; the last line of
// standard output is one JSON object holding the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1), with the counts of
// checked operations attempted and failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart is taken at package initialisation, the earliest point
// a Go program can observe, so setup_s counts runtime start-up too.
var processStart = time.Now()

// workDir holds everything a run writes: reference caches, state
// files, trace journals and span dumps. It is relative to the working
// directory, which is the repository checkout.
const workDir = ".bench_build/e2ebench"

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	// window is how long the timed loop runs; each workload completes
	// whole units of work, so a run may measure slightly longer.
	window time.Duration
	trace  bool
	// tiny shrinks every input so the benchmark's own tests finish in
	// seconds. Metrics from a tiny run are not comparable to real ones.
	tiny bool
	// fault names one deliberately wrong output the workload injects
	// before checking it; the tests use it to prove the checks count
	// failures. Empty in real runs.
	fault string
}

type workloadFunc func(ctx context.Context, c *config, tr *tracer, r *report) error

var workloads = map[string]workloadFunc{
	"paper-tables":  runPaperTables,
	"big-detail":    runBigDetail,
	"sampled-ultra": runSampledUltra,
	"serve-mix":     runServeMix,
}

func main() {
	c := config{}
	var seconds float64
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload name (paper-tables, big-detail, sampled-ultra, serve-mix)")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 12, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records layer spans and reports the per-layer metrics")
	flag.Parse()
	c.window = time.Duration(seconds * float64(time.Second))
	c.trace = trace == 1
	if err := run(context.Background(), &c, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its metric lines and the final
// JSON result to out.
func run(ctx context.Context, c *config, out io.Writer) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.window <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	r := newReport()
	if err := fn(ctx, c, tr, r); err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}
	r.add("fail_frac", "ratio", r.failFrac(), r.attempted)
	if tr != nil {
		tr.report(r)
		name := fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed)
		if err := tr.write(filepath.Join(workDir, name)); err != nil {
			return err
		}
	}
	return r.print(out, spec, c.trace)
}

// benchSpec is the part of BENCHMARK.json the program needs: the
// names and units of the metrics it must report.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	unit  string
	value float64
	n     int
}

// report collects a run's metrics and its output checks.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// add records a metric; n is the sample count behind it.
func (r *report) add(name, unit string, v float64, n int) {
	r.metrics[name] = metric{unit: unit, value: v, n: n}
}

// check counts one checked output; a failed check is described on
// standard error.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: "+format+"\n", args...)
	}
}

func (r *report) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every measured metric as a line, then the JSON result
// holding the end-to-end or the per-layer metrics of spec. A per-layer
// metric the workload does not exercise is reported as 0 with no
// samples; an end-to-end metric must always be measured.
func (r *report) print(out io.Writer, spec *benchSpec, traced bool) error {
	want, group := spec.EndToEnd, "end-to-end"
	if traced {
		want, group = spec.PerLayer, "per-layer"
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && !traced:
			return fmt.Errorf("%s metric %s was not measured", group, m.Name)
		case !ok:
			got = metric{unit: m.Unit}
			r.metrics[m.Name] = got
		case got.unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.unit, m.Unit)
		}
		res.Metrics[m.Name] = resultValue{Value: got.value, Unit: m.Unit}
	}
	if res.Attempted == 0 {
		return errors.New("no output was checked")
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(out, "metric %-32s %14.6g %-9s n=%d\n", n, m.value, m.unit, m.n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// rssPeaks collects the resident-set high-water mark of each unit of
// work (a repetition, pass or phase); a run reports their median.
type rssPeaks []float64

// start begins a unit: a GC that returns the previous unit's garbage
// to the OS, then a reset of the kernel's high-water mark. Where the
// reset is refused the marks stay cumulative, which only overstates.
func (p *rssPeaks) start() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stop records the high-water mark since start, in MB.
func (p *rssPeaks) stop() {
	*p = append(*p, vmHWMMB())
}

// vmHWMMB reads the process's resident-set high-water mark, falling
// back to getrusage's lifetime peak.
func vmHWMMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report adds peak_rss_mb, the median unit's peak.
func (p rssPeaks) report(r *report) {
	r.add("peak_rss_mb", "MB", median(p), len(p))
}

// timeSetup runs prepare reps times and reports setup_s as the median
// repetition, the first one measured from process start so runtime
// start-up counts once. Between repetitions, untimed, undo (if not nil)
// tears the previous repetition down and its garbage is returned to
// the OS, so each repetition starts as a fresh process would.
func timeSetup(r *report, reps int, prepare func(rep int) error, undo func() error) error {
	times := make([]float64, reps)
	start := processStart
	for i := range reps {
		if i > 0 {
			if undo != nil {
				if err := undo(); err != nil {
					return err
				}
			}
			debug.FreeOSMemory()
			start = time.Now()
		}
		if err := prepare(i); err != nil {
			return err
		}
		times[i] = time.Since(start).Seconds()
	}
	r.add("setup_s", "s", median(times), reps)
	return nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
