package harness

import (
	"fmt"
	"testing"

	"civect/internal/core"
)

// TestGoldenStats pins exact simulation statistics for a spread of
// fixed-seed workloads and machine configurations. The simulator is
// deterministic, so any change to these digests means the modeled
// machine behaved differently — the hot-path optimisations (buffer
// pooling, dense tables, the active-entry worklist) are required to be
// semantics-preserving, and this test is the tripwire.
//
// The values were recorded after the worklist aliasing fix (an SRSMT
// way's next incarnation used to inherit its predecessor's worklist
// listing and got two replica-arbitration turns per cycle); the scalar
// and wide-bus rows are bit-identical with the original seed, the
// vectorizing rows differ from the seed only through that fix.
func TestGoldenStats(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Bench: "gcc", Mode: core.ModeScalar, Ports: 1, Regs: 256, MaxInstr: 40000},
			"30626 40000 0 89726 49665 0 766 0 0 0 0 5301"},
		{RunSpec{Bench: "gcc", Mode: core.ModeCI, Ports: 1, Regs: 256, MaxInstr: 40000},
			"28968 40004 11470 50950 10900 17467 798 1294 577 0 0 4796"},
		{RunSpec{Bench: "gzip", Mode: core.ModeCI, Ports: 2, Regs: 512, Replicas: 8, MaxInstr: 40000},
			"11159 40000 7909 61733 21709 20678 499 1094 984 0 0 3494"},
		{RunSpec{Bench: "mcf", Mode: core.ModeCIIW, Ports: 1, Regs: 256, MaxInstr: 40000},
			"178901 40003 5762 52233 12010 0 903 0 0 6881 0 6353"},
		{RunSpec{Bench: "parser", Mode: core.ModeVect, Ports: 2, Regs: 256, MaxInstr: 40000},
			"23734 40005 10878 54662 14638 22530 952 2544 1029 0 0 4965"},
		{RunSpec{Bench: "gcc", Mode: core.ModeCI, Ports: 1, Regs: 256, SpecMem: 768, MaxInstr: 40000},
			"20997 40005 11165 66218 26048 19038 837 1467 1002 0 14867 4336"},
		{RunSpec{Bench: "twolf", Mode: core.ModeWideBus, Ports: 1, Regs: 128, MaxInstr: 40000},
			"84410 40005 0 63100 23021 0 840 0 0 0 0 4378"},
		{RunSpec{Bench: "vpr", Mode: core.ModeCI, Ports: 1, Regs: 0, NoDAEC: true, MaxInstr: 40000},
			"11516 40005 5579 62263 22201 19519 620 2020 2012 0 0 4410"},
	}
	digest := func(st *core.Stats) string {
		return fmt.Sprintf("%d %d %d %d %d %d %d %d %d %d %d %d",
			st.Cycles, st.Committed, st.CommittedReuse, st.Fetched, st.SquashedBP,
			st.ReplicasDispatched, st.Mispredicts, st.VectorizedEntries,
			st.ValidationFails, st.IWCaptured, st.SpecMemCopies, st.L1D.Accesses)
	}
	h := New(Options{Workers: 1})
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("%s-%v-p%d-r%d", c.spec.Bench, c.spec.Mode, c.spec.Ports, c.spec.Regs)
		t.Run(name, func(t *testing.T) {
			st, err := h.Run(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(st); got != c.want {
				t.Errorf("stats digest changed:\n got %s\nwant %s", got, c.want)
			}
		})
	}

	// The same cells through Prefetch's per-benchmark sweep sets, where
	// gcc's three configurations run one after another on recycled
	// storage, must give the same digests.
	specs := make([]RunSpec, len(cases))
	for i, c := range cases {
		specs[i] = c.spec
	}
	pre := New(Options{Workers: 1})
	if err := pre.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	if n := len(pre.UnusedPrimed()); n != len(cases) {
		t.Fatalf("prefetch primed %d cells, want %d", n, len(cases))
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("prefetch/%s-%v-p%d-r%d", c.spec.Bench, c.spec.Mode, c.spec.Ports, c.spec.Regs)
		t.Run(name, func(t *testing.T) {
			st, err := pre.Run(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(st); got != c.want {
				t.Errorf("prefetched stats digest differs:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
