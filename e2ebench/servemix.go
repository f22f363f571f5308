package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"civect/internal/serve"
	"civect/internal/trace"
	"civect/internal/workload"
	"civect/sim"
)

// The serve-mix traffic: open-loop Poisson arrivals of short base-tier
// jobs at two fixed rates, each for half the run window. The two
// workers share a 2-CPU host with the HTTP handlers, so the heavy rate
// keeps them about a third busy: at higher rates latency followed each
// seed's arrival bursts more than the program. At a 20 s window the
// light phase still leaves more than ten samples beyond its p95.
const (
	lightRate     = 30.0 // jobs per second
	heavyRate     = 45.0
	serveJobInstr = 20_000
	// latencyLimit is the goodput limit: a job counts when it finished
	// within this time of being due.
	latencyLimit  = 250 * time.Millisecond
	traceShare    = 0.2 // jobs that attach a cycle-trace journal
	resubmitShare = 0.1 // submissions that repeat an earlier idempotency key
	directChecks  = 24  // jobs re-run directly through sim.New per run
	journalChecks = 12  // trace journals replayed per run
)

// arrival is one scheduled submission.
type arrival struct {
	due  time.Duration // after the phase start
	spec serve.JobSpec
	key  string
	// orig is the index of the arrival whose key this one repeats, or
	// -1 for a fresh job.
	orig int
}

// submission is what one POST returned.
type submission struct {
	status int
	id     string
	sent   time.Time
	submit time.Duration
	lag    time.Duration
}

// server is the in-process daemon on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func startServer(traceDir string) (*server, error) {
	// The daemon expects its trace directory to exist, as ciserve's
	// start-up check ensures.
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		Workers:    2,
		QueueDepth: 4096, // never the bottleneck: shedding would be a failed operation
		TraceDir:   traceDir,
		Logf:       func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the job layer, closes the listener and waits for the
// serving goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(derr, herr)
}

// runServeMix drives an in-process serve.Server over HTTP on loopback
// with at most two connections. Arrival times, the job mix, which jobs
// are traced or resubmitted, and which results are re-checked all come
// from the seed. Latency runs from each job's due time to its
// server-side FinishedAt, read back from the list endpoint.
func runServeMix(ctx context.Context, c *config, tr *tracer, r *report) error {
	bases := sim.BaseWorkloads()
	window := c.window
	if c.tiny {
		window = min(window, 2*time.Second)
	}
	dir := filepath.Join(workDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}

	var (
		srv *server
		gen []float64
	)
	err := timeSetup(r, 9, func(rep int) error {
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
		var err error
		if srv, err = startServer(filepath.Join(dir, fmt.Sprint(rep))); err != nil {
			return err
		}
		var h serve.Health
		return getJSON(ctx, client, srv.base+"/healthz", &h)
	}, func() error {
		err := srv.stop()
		srv = nil
		transport.CloseIdleConnections()
		return err
	})
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return err
	}
	r.add("workload.gen_s.base", "s", median(gen), len(gen))

	rng := newRand(c.seed)
	var (
		subs    = map[string][]submission{}
		arrs    = map[string][]arrival{}
		starts  = map[string]time.Time{}
		phases  = []string{"light", "heavy"}
		rates   = map[string]float64{"light": lightRate, "heavy": heavyRate}
		runMs   = map[string][]float64{} // untraced run times by workload/mode
		work    workCounts
		missing int
		peaks   rssPeaks
	)
	var jobs uint64
	for _, ph := range phases {
		arrs[ph] = schedule(rng, ph, c.seed, rates[ph], window/2, bases)
		peaks.start()
		start := time.Now().Add(20 * time.Millisecond)
		starts[ph] = start
		subs[ph] = submitAll(ctx, client, srv.base, start, arrs[ph])
		for _, a := range arrs[ph] {
			if a.orig < 0 {
				jobs++
			}
		}
		if err := awaitJobs(ctx, client, srv.base, jobs); err != nil {
			return err
		}
		peaks.stop()
	}
	peaks.report(r)
	views, err := listJobs(ctx, client, srv.base)
	if err != nil {
		return err
	}

	// Read back every job, check it, and gather latencies.
	var submitMs, lagMs, queueMs, allRunMs []float64
	var traced []serve.View
	latency := map[string][]float64{}
	var good int
	for _, ph := range phases {
		for i, a := range arrs[ph] {
			s := subs[ph][i]
			submitMs = append(submitMs, ms(s.submit))
			lagMs = append(lagMs, ms(s.lag))
			if a.orig >= 0 {
				orig := subs[ph][a.orig]
				r.check(s.id != "" && s.id == orig.id && (s.status == http.StatusOK || orig.status == http.StatusOK),
					"%s: resubmit of key %s returned job %q, the original is %q", ph, a.key, s.id, orig.id)
				continue
			}
			v, ok := views[s.id]
			if c.fault == "job" && ph == "light" && i == 0 {
				v.State = serve.StateFailed
			}
			done := ok && v.State == serve.StateDone && v.Result != nil && v.StartedAt != nil && v.FinishedAt != nil
			r.check(done, "%s: job %s (%s) ended %q: %s", ph, s.id, a.key, v.State, v.Error)
			if !done {
				missing++
				continue
			}
			due := starts[ph].Add(a.due)
			lat := ms(v.FinishedAt.Sub(due))
			latency[ph] = append(latency[ph], lat)
			if ph == "heavy" && lat <= ms(latencyLimit) {
				good++
			}
			q, run := ms(v.StartedAt.Sub(v.SubmittedAt)), ms(v.FinishedAt.Sub(*v.StartedAt))
			queueMs = append(queueMs, q)
			allRunMs = append(allRunMs, run)
			like := a.spec.Workload + "/" + a.spec.Mode
			if a.spec.Trace {
				traced = append(traced, v)
			} else {
				runMs[like] = append(runMs[like], run)
			}
			work.add(&v.Result.Stats)
			root := tr.record("serve", "job", s.id, -1, due, *v.FinishedAt)
			tr.record("serve", "POST /v1/jobs", s.id, root, s.sent, s.sent.Add(s.submit))
			tr.record("serve", "queue wait", s.id, root, v.SubmittedAt, *v.StartedAt)
			tr.record("core", "job run", s.id, root, *v.StartedAt, *v.FinishedAt)
		}
	}
	heavyDone := len(latency["heavy"])
	r.add("job_p50_ms.light", "ms", quantile(latency["light"], 0.5), len(latency["light"]))
	r.add("job_p95_ms.light", "ms", quantile(latency["light"], 0.95), len(latency["light"]))
	r.add("job_p50_ms.heavy", "ms", quantile(latency["heavy"], 0.5), heavyDone)
	r.add("job_p95_ms.heavy", "ms", quantile(latency["heavy"], 0.95), heavyDone)
	r.add("answer_p50_ms", "ms", quantile(latency["heavy"], 0.5), heavyDone)
	r.add("goodput_jps.heavy", "1/s", float64(good)/(window/2).Seconds(), heavyDone+missing)
	// Open-loop throughput is the offered load, so serve-mix reports
	// the rate at which busy workers answer instead.
	r.add("minstr_per_s", "Minstr/s", float64(work.committed)/sum(allRunMs)*1e3/1e6, work.sessions)
	r.add("serve.submit_ms.p50", "ms", quantile(submitMs, 0.5), len(submitMs))
	r.add("serve.submit_ms.p95", "ms", quantile(submitMs, 0.95), len(submitMs))
	r.add("serve.queue_wait_ms.p50", "ms", quantile(queueMs, 0.5), len(queueMs))
	r.add("serve.queue_wait_ms.p95", "ms", quantile(queueMs, 0.95), len(queueMs))
	r.add("serve.run_ms.p50", "ms", quantile(allRunMs, 0.5), len(allRunMs))
	r.add("gen.lag_ms.p95", "ms", quantile(lagMs, 0.95), len(lagMs))
	m := srv.srv.Metrics()
	r.add("serve.replayed", "count", float64(m.Replayed.Load()), 1)
	r.add("serve.shed", "count", float64(m.ShedQueueFull.Load()+m.ShedBreaker.Load()+m.ShedDraining.Load()), 1)
	r.add("serve.retries", "count", float64(m.Retries.Load()), 1)
	work.report(r)

	// Traced jobs: journal size, run-time overhead against untraced jobs
	// of the same workload and mode, and a replay of some journals.
	var bytesSum, tracedRun, likeRun float64
	for k, v := range traced {
		fi, err := os.Stat(v.TracePath)
		r.check(err == nil, "job %s: trace journal: %v", v.ID, err)
		if err != nil {
			continue
		}
		bytesSum += float64(fi.Size())
		run := ms(v.FinishedAt.Sub(*v.StartedAt))
		if like := runMs[v.Spec.Workload+"/"+v.Spec.Mode]; len(like) > 0 {
			tracedRun += run
			likeRun += median(like)
			if extra := run - median(like); extra > 0 {
				tr.record("trace", "journal overhead", v.ID, -1, v.FinishedAt.Add(-time.Duration(extra*1e6)), *v.FinishedAt)
			}
		}
		if k < journalChecks {
			sp := tr.begin("trace", "trace.Replay", v.ID, -1)
			err := replayJournal(v.TracePath)
			tr.end(sp)
			r.check(err == nil, "job %s: trace journal does not replay: %v", v.ID, err)
		}
	}
	if len(traced) > 0 {
		r.add("trace.bytes_per_job", "B", bytesSum/float64(len(traced)), len(traced))
	}
	if likeRun > 0 {
		r.add("trace.run_ms_overhead_pct", "%", 100*(tracedRun/likeRun-1), len(traced))
	}

	// A seeded subset of results must be byte-equal to the same spec run
	// directly through sim.New.
	ids := make([]string, 0, len(views))
	for id, v := range views {
		if v.State == serve.StateDone && v.Result != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	checks := directChecks
	if c.tiny {
		checks = 3
	}
	for _, k := range rng.Perm(len(ids))[:min(checks, len(ids))] {
		v := views[ids[k]]
		sp := tr.begin("core", "direct sim.New+Run", v.ID, -1)
		want, err := directStats(ctx, v.Spec)
		tr.end(sp)
		if err != nil {
			return err
		}
		got, err := json.Marshal(v.Result.Stats)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(got, want), "job %s: served stats differ from a direct sim.New run of %s/%s", v.ID, v.Spec.Workload, v.Spec.Mode)
	}
	return nil
}

// schedule draws one phase's open-loop arrivals: exponential gaps at
// the given rate over the phase length. Jobs deal the base-tier
// programs in all five modes from a shuffled deck, and the traced
// share from a second deck, so every seed offers the same mix in a
// different order; a resubmit repeats a random earlier key.
func schedule(rng *rand.Rand, phase string, seed int64, rate float64, length time.Duration, bases []string) []arrival {
	var specs []serve.JobSpec
	for _, b := range bases {
		for _, m := range sim.Modes() {
			specs = append(specs, serve.JobSpec{Workload: b, Mode: m.String(), MaxInstr: serveJobInstr})
		}
	}
	traced := make([]bool, len(specs))
	for i := range int(traceShare * float64(len(specs))) {
		traced[i] = true
	}
	var out []arrival
	var freshIdx []int
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= length {
			return out
		}
		a := arrival{due: t, orig: -1}
		if len(freshIdx) > 0 && rng.Float64() < resubmitShare {
			a.orig = freshIdx[rng.Intn(len(freshIdx))]
			a.spec, a.key = out[a.orig].spec, out[a.orig].key
		} else {
			k := len(freshIdx) % len(specs)
			if k == 0 {
				rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
				rng.Shuffle(len(traced), func(i, j int) { traced[i], traced[j] = traced[j], traced[i] })
			}
			a.spec = specs[k]
			a.spec.Trace = traced[k]
			a.key = fmt.Sprintf("s%d-%s-%d", seed, phase, len(out))
			freshIdx = append(freshIdx, len(out))
		}
		out = append(out, a)
	}
}

// submitAll sends every arrival when it is due, from two senders.
// A sender that falls behind sends late; the lag is recorded.
func submitAll(ctx context.Context, client *http.Client, base string, start time.Time, arrs []arrival) []submission {
	out := make([]submission, len(arrs))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
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
				if i >= len(arrs) {
					return
				}
				due := start.Add(arrs[i].due)
				time.Sleep(time.Until(due))
				out[i] = post(ctx, client, base, arrs[i])
				out[i].lag = out[i].sent.Sub(due)
			}
		}()
	}
	wg.Wait()
	return out
}

func post(ctx context.Context, client *http.Client, base string, a arrival) submission {
	body, _ := json.Marshal(a.spec) // a JobSpec always marshals
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	s := submission{sent: time.Now()}
	if err != nil {
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", a.key)
	resp, err := client.Do(req)
	if err != nil {
		s.submit = time.Since(s.sent)
		return s
	}
	defer resp.Body.Close()
	var v serve.View
	if json.NewDecoder(resp.Body).Decode(&v) == nil {
		s.id = v.ID
	}
	s.status = resp.StatusCode
	s.submit = time.Since(s.sent)
	return s
}

// awaitJobs waits, polling the small health endpoint, until the server
// has finished want jobs in total.
func awaitJobs(ctx context.Context, client *http.Client, base string, want uint64) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var h serve.Health
		if err := getJSON(ctx, client, base+"/healthz", &h); err != nil {
			return err
		}
		if h.Done+h.Failed+h.Canceled >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d jobs still unfinished after two minutes", want-h.Done-h.Failed-h.Canceled, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// listJobs reads every job back from the list endpoint.
func listJobs(ctx context.Context, client *http.Client, base string) (map[string]serve.View, error) {
	var list struct {
		Jobs []serve.View `json:"jobs"`
	}
	if err := getJSON(ctx, client, base+"/v1/jobs", &list); err != nil {
		return nil, err
	}
	views := make(map[string]serve.View, len(list.Jobs))
	for _, v := range list.Jobs {
		views[v.ID] = v
	}
	return views, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// directStats runs spec straight through sim.New with the options the
// server resolves it to, and returns the statistics as JSON.
func directStats(ctx context.Context, spec serve.JobSpec) ([]byte, error) {
	w, err := sim.Load(spec.Workload)
	if err != nil {
		return nil, err
	}
	mode, err := sim.ParseMode(spec.Mode)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(w, sim.WithMode(mode), sim.WithPorts(1), sim.WithRegs(256), sim.WithInstrBudget(spec.MaxInstr))
	if err != nil {
		return nil, err
	}
	res, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Stats)
}

// replayJournal reads a job's trace journal back and replays it, which
// verifies its checksums and pipeline discipline.
func replayJournal(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	_, err = trace.Replay(rd)
	return err
}
