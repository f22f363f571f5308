package sample

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"civect/internal/core"
	"civect/internal/workload"
)

// TestSampledGolden pins the sampled pipeline's three outputs byte for
// byte: Collect's Profile JSON, Run's Estimate JSON and CaptureState's
// container, each as a SHA-256. The geometry is chosen against the
// functional pass's batching: an interval length and warmup that are
// not powers of two put sample and warmup starts mid-batch, one stream
// halts mid-batch, one stream's MaxInstr ends mid-batch, and one plan
// has a sample at instruction 0 (its warmup start is reached before the
// pass executes anything).
func TestSampledGolden(t *testing.T) {
	cases := []struct {
		name    string
		bench   string
		iters   int // >0: a short, halting instance of bench
		cfg     Config
		k       int
		warmup  uint64
		atZero  bool // plan the first and last intervals by hand
		profile string
		est     string
		state   string
	}{
		{name: "gcc.big", bench: "gcc.big", cfg: Config{IntervalLen: 7777, MaxInstr: 2_000_000}, k: 6, warmup: 3001,
			profile: "bb08164534605aae9c89af59b65398d957a8c3b71bc3094bf40373205d4faba5",
			est:     "4f24709ef17133667cf49d6c53d62c55dd5e9767fc3e99e139b41d3323deeed0",
			state:   "58001a939ef12b6a0bbcbd69c2107bb6e128697fb98bc13a6343cf83ddaa0005"},
		{name: "mcf.big", bench: "mcf.big", cfg: Config{IntervalLen: 7777, MaxInstr: 2_000_000}, k: 6, warmup: 3001,
			profile: "e971115a6c69395261ebfd91ba1df9e53c3acf13500ba5bed92117d9ba07d202",
			est:     "58ba59a5a31387f337faf2dce17bf13c08b4e2cdf7d6f11e327bd3f036ba5b12",
			state:   "34f88291b3237fb7ef0f0074d9fab0ed2e46d1046121dceb1c850f0c168d6cbe"},
		{name: "halts-mid-batch", bench: "gzip", iters: 2000, cfg: Config{IntervalLen: 7777}, k: 4, warmup: 3001,
			profile: "e84836f14d4d082ab69ebba5e8fa95c3be480931da82021ef6e7d6062696544b",
			est:     "29d0a3af833622153fbe532bbc425d52db524ae21e716ab37909d51a8b2e6cc5",
			state:   "e709adb168d8237aedb76da11a74205580423574b4cacdfa0507a308d1de37ad"},
		{name: "limit-mid-batch", bench: "twolf", cfg: Config{IntervalLen: 7777, MaxInstr: 100_003}, k: 4, warmup: 3001,
			profile: "e57f71b34d9dd8c401568d4336d53d95b63ed9924bd6945113bac98310761928",
			est:     "5de221934a8668ac464980cd78c92b4d662e4567528ae300fa5ffcd843e9081d",
			state:   "c1a6213c0679fd514c7f981577b9cce193b773f167c34d153404eca789bb8f4e"},
		{name: "sample-at-zero", bench: "vpr.big", cfg: Config{IntervalLen: 7777, MaxInstr: 60_000}, warmup: 3001, atZero: true,
			profile: "854a2f5c59d6284ad50011835c1d7e18d214a058bb7fae5e0606b26f4fe6f783",
			est:     "4030770e60a931267c7545334df97e6c0e80dca090609d4864af8fef9262bf2d",
			state:   "e9d4381ef17cf8fc8b7eb2747ddbfa0417452261177a07315dbeee3e9011283b"},
	}
	digest := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wl *workload.Benchmark
			var err error
			if tc.iters > 0 {
				wl, err = workload.SpecWithIters(tc.bench, tc.iters)
			} else {
				wl, err = workload.Spec(tc.bench)
			}
			if err != nil {
				t.Fatal(err)
			}
			prof, err := Collect(wl.Program, wl.NewMem(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan := prof.BuildPlan(tc.k)
			if tc.atZero {
				last := len(prof.Lengths) - 1
				plan = &Plan{IntervalLen: prof.IntervalLen, TotalInstr: prof.TotalInstr, K: 2, Samples: []PlanSample{
					{Interval: 0, Start: 0, Len: prof.Lengths[0], Weight: 0.5},
					{Interval: last, Start: uint64(last) * prof.IntervalLen, Len: prof.Lengths[last], Weight: 0.5},
				}}
			}
			cfg := core.DefaultConfig(core.ModeCI)
			est, err := Run(context.Background(), plan, wl.Program, wl.NewMem(), cfg, tc.warmup)
			if err != nil {
				t.Fatal(err)
			}
			state, err := CaptureState(context.Background(), plan, wl.Program, wl.NewMem(), cfg, tc.warmup)
			if err != nil {
				t.Fatal(err)
			}
			pj, err := json.Marshal(prof)
			if err != nil {
				t.Fatal(err)
			}
			ej, err := json.Marshal(est)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d instructions, %d intervals, %d samples", prof.TotalInstr, len(prof.Lengths), len(plan.Samples))
			for _, o := range []struct{ what, got, want string }{
				{"Profile JSON", digest(pj), tc.profile},
				{"Estimate JSON", digest(ej), tc.est},
				{"CaptureState bytes", digest(state), tc.state},
			} {
				if o.got != o.want {
					t.Errorf("%s sha256 = %s, want %s", o.what, o.got, o.want)
				}
			}
		})
	}
}
