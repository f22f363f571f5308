package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"civect/internal/sample"
	"civect/internal/workload"
	"civect/sim"
)

// samplingConfig is what sim.WithSampling runs with its defaults.
var samplingConfig = struct {
	intervalLen uint64
	clusters    int
	warmup      uint64
}{10_000, 8, 3_000}

// streamResult is one .ultra stream answered twice: live, then through
// a captured state file.
type streamResult struct {
	name                string
	total, detailed     uint64
	ipc, ipcCI          float64
	profile, cluster    time.Duration
	run, capture, write time.Duration
	measure             time.Duration
	stateBytes          int
	same                bool
	// answer is the stream's wall time for both answers.
	answer time.Duration
}

// runSampledUltra answers every .ultra stream (about 13M instructions
// each) with the sampled pipeline, one stream at a time so each
// stream's memory peak is its own, in an order drawn from the seed.
// Each stream is answered live — sample.Collect, Profile.BuildPlan,
// sample.Run, as sim.WithSampling does — and then from a state file:
// sample.CaptureState, sample.WriteStateFile, read back,
// sample.RunFromState. The two estimates must be bit-identical.
// Warm state comes from functional warming. The accuracy reference is
// a full detailed run of each stream on this build, made after timing
// stops and cached per build.
func runSampledUltra(ctx context.Context, c *config, tr *tracer, r *report) error {
	streams := sim.UltraWorkloads()
	var maxInstr uint64
	if c.tiny {
		streams, maxInstr = streams[:2], 200_000
	}
	benches := make([]*workload.Benchmark, len(streams))
	var gen []float64
	err := timeSetup(r, 3, func(int) error {
		t0 := time.Now()
		err := parallel(len(streams), func(i int) error {
			sp := tr.begin("workload", "workload.Spec", streams[i], -1)
			defer tr.end(sp)
			var err error
			benches[i], err = workload.Spec(streams[i])
			return err
		})
		gen = append(gen, time.Since(t0).Seconds())
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.add("workload.gen_s.ultra", "s", median(gen), len(gen))

	order := newRand(c.seed).Perm(len(streams))
	stateDir := filepath.Join(workDir, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	cfg := sim.DefaultConfig(sim.CI)

	var (
		results  []streamResult
		instr    uint64
		elapsed  time.Duration
		allocMB  float64
		ms0, ms1 runtime.MemStats
		peaks    rssPeaks
	)
	for pass := 0; pass == 0 || elapsed < c.window; pass++ {
		runtime.ReadMemStats(&ms0)
		for k, i := range order {
			peaks.start()
			t0 := time.Now()
			res, err := answerStream(ctx, tr, benches[i], streams[i], maxInstr, cfg, stateDir,
				c.fault == "estimate" && pass == 0 && k == 0)
			wall := time.Since(t0)
			peaks.stop()
			if err != nil {
				return err
			}
			elapsed += wall
			instr += 2 * res.total
			r.check(res.same, "%s: state-file estimate differs from the live estimate", res.name)
			results = append(results, res)
		}
		runtime.ReadMemStats(&ms1)
		if pass == 0 {
			allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(len(streams))
		}
	}
	peaks.report(r)
	r.add("minstr_per_s", "Minstr/s", float64(instr)/elapsed.Seconds()/1e6, len(results))

	var answers, profile, cluster, run, capture, write, measure, emuRate, ci95 []float64
	var stateMB, detailed, total float64
	for _, res := range results {
		answers = append(answers, res.answer.Seconds())
		profile = append(profile, res.profile.Seconds())
		cluster = append(cluster, res.cluster.Seconds())
		run = append(run, res.run.Seconds())
		capture = append(capture, res.capture.Seconds())
		write = append(write, res.write.Seconds())
		measure = append(measure, res.measure.Seconds())
		emuRate = append(emuRate, float64(res.total)/res.profile.Seconds()/1e6)
		ci95 = append(ci95, res.ipcCI)
		stateMB += float64(res.stateBytes) / 1e6
		detailed += float64(res.detailed)
		total += float64(res.total)
	}
	n := len(results)
	r.add("answer_p50_ms", "ms", 1e3*median(answers), len(answers))
	r.add("sample.profile_s", "s", median(profile), n)
	r.add("sample.cluster_s", "s", median(cluster), n)
	r.add("sample.run_s", "s", median(run), n)
	r.add("sample.capture_s", "s", median(capture), n)
	r.add("sample.measure_s", "s", median(measure), n)
	r.add("sample.detailed_frac", "ratio", detailed/total, n)
	r.add("sample.alloc_mb", "MB", allocMB, len(streams))
	r.add("sample.ipc_ci95", "ipc", sum(ci95)/float64(n), n)
	r.add("emu.minstr_per_s", "Minstr/s", median(emuRate), n)
	r.add("ckpt.state_mb", "MB", stateMB/float64(n), n)
	r.add("ckpt.write_s", "s", median(write), n)

	// Untimed: the error of each estimate against the detailed IPC of
	// the same stream on this build.
	ref, err := detailedIPC(ctx, tr, streams, maxInstr)
	if err != nil {
		return err
	}
	var errSum float64
	for _, res := range results[:len(streams)] {
		e := 100 * math.Abs(res.ipc-ref[res.name]) / ref[res.name]
		r.add("sample_ipc_err_pct."+res.name, "%", e, 1)
		errSum += e
	}
	r.add("sample_ipc_err_pct", "%", errSum/float64(len(streams)), len(streams))
	return nil
}

// answerStream runs one stream's live and state-file answers. perturb
// changes the state-file estimate before the two are compared.
func answerStream(ctx context.Context, tr *tracer, b *workload.Benchmark, name string, maxInstr uint64,
	cfg sim.Config, stateDir string, perturb bool) (streamResult, error) {
	res := streamResult{name: name}
	root := tr.begin("sample", "stream", name, -1)
	defer tr.end(root)

	t0 := time.Now()
	sp := tr.begin("sample", "sample.Collect", name, root)
	prof, err := sample.Collect(b.Program, b.NewMem(), sample.Config{IntervalLen: samplingConfig.intervalLen, MaxInstr: maxInstr})
	tr.end(sp)
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	sp = tr.begin("sample", "Profile.BuildPlan", name, root)
	plan := prof.BuildPlan(samplingConfig.clusters)
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin("sample", "sample.Run", name, root)
	live, err := sample.Run(ctx, plan, b.Program, b.NewMem(), cfg, samplingConfig.warmup)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	t3 := time.Now()

	sp = tr.begin("sample", "sample.CaptureState", name, root)
	data, err := sample.CaptureState(ctx, plan, b.Program, b.NewMem(), cfg, samplingConfig.warmup)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	t4 := time.Now()
	path := filepath.Join(stateDir, name+".sstate")
	sp = tr.begin("ckpt", "sample.WriteStateFile", name, root)
	err = sample.WriteStateFile(path, data)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	t5 := time.Now()
	sp = tr.begin("ckpt", "read state file", name, root)
	back, err := os.ReadFile(path)
	tr.end(sp)
	if err != nil {
		return res, err
	}
	sp = tr.begin("sample", "sample.RunFromState", name, root)
	fromFile, err := sample.RunFromState(ctx, back, b.Program, b.NewMem())
	tr.end(sp)
	if err != nil {
		return res, err
	}
	t6 := time.Now()

	if perturb {
		fromFile.Stats[0].Mean = math.Nextafter(fromFile.Stats[0].Mean, 2)
	}
	res.same = reflect.DeepEqual(live, fromFile)
	res.total, res.detailed = live.TotalInstr, live.DetailedInstr
	res.ipc, res.ipcCI = live.IPC()
	res.profile, res.cluster, res.run = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	res.capture, res.write, res.measure = t4.Sub(t3), t5.Sub(t4), t6.Sub(t5)
	res.stateBytes = len(data)
	res.answer = t6.Sub(t0)
	return res, nil
}

// detailedIPC returns each stream's IPC from a full detailed run on
// this build. Results are cached in a file keyed by a hash of the
// running executable, so a build pays for them once.
func detailedIPC(ctx context.Context, tr *tracer, streams []string, maxInstr uint64) (map[string]float64, error) {
	key, err := buildHash()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(workDir, fmt.Sprintf("detailed-ipc-%s-%d.json", key, maxInstr))
	ref := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			ref = map[string]float64{}
		}
	}
	var missing []string
	for _, name := range streams {
		if _, ok := ref[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return ref, nil
	}
	var mu sync.Mutex
	err = parallel(len(missing), func(i int) error {
		sp := tr.begin("core", "reference Session.Run", missing[i], -1)
		defer tr.end(sp)
		w, err := sim.Load(missing[i])
		if err != nil {
			return err
		}
		s, err := sim.New(w, sim.WithInstrBudget(maxInstr))
		if err != nil {
			return err
		}
		res, err := s.Run(ctx)
		if err != nil {
			return err
		}
		mu.Lock()
		ref[missing[i]] = res.IPC
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	return ref, os.WriteFile(path, data, 0o644)
}

// buildHash identifies the running executable.
func buildHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// parallel calls f(0..n-1) on at most two goroutines, the benchmark's
// worker limit, and returns the first error.
func parallel(n int, f func(i int) error) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		errs = make([]error, n)
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
