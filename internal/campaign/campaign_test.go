package campaign

import (
	"context"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

func target(t *testing.T, name string) Target {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return Target{Cfg: cpu.DefaultConfig(), Prog: w.Program()}
}

// mustRun unwraps a campaign result in tests that never cancel: any
// cancellation error there is a test bug. Curried so Run's
// (Result, error) pair can feed it directly: mustRun(t)(r.Run(...)).
func mustRun(t *testing.T) func(*Result, error) *Result {
	return func(res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

func TestGoldenRun(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Result.Halt != cpu.HaltOK || len(g.Result.Output) == 0 {
		t.Fatalf("golden: %+v", g.Result)
	}
	if g.Tracer != nil {
		t.Error("tracer must be nil when no structures are tracked")
	}
	g2, err := r.RunGolden(lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Tracer == nil || g2.Tracer.Cycles == 0 {
		t.Fatal("tracked golden run missing tracer state")
	}
	for _, s := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D} {
		if len(g2.Tracer.Log(s).Events) == 0 {
			t.Errorf("no %v events", s)
		}
	}
	if len(g2.Tracer.BranchTrace()) == 0 {
		t.Error("no committed branches recorded")
	}
}

func TestInjectionCampaignSmall(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF,
		c.StructureEntries(lifetime.StructRF), 64, g.Result.Cycles, 150, 7)
	res := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))
	if res.Dist.Total() != 150 {
		t.Fatalf("classified %d of 150", res.Dist.Total())
	}
	// Sanity: most RF faults are masked (the paper measures >90% masked
	// for the RF), and at least a few faults do something.
	if res.Dist.Share(Masked) < 0.5 {
		t.Errorf("masked share %.2f implausibly low: %v", res.Dist.Share(Masked), res.Dist)
	}
	if res.Dist[Masked] == res.Dist.Total() {
		t.Log("warning: every fault masked (legal but uninformative at this sample size)")
	}
	if res.Serial <= 0 || res.Wall <= 0 {
		t.Error("timing not recorded")
	}
	t.Logf("RF dist: %v", res.Dist)
}

func TestInjectionDeterminism(t *testing.T) {
	r := NewRunner(target(t, "qsort"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructL1D,
		c.StructureEntries(lifetime.StructL1D), c.StructureEntryBits(lifetime.StructL1D),
		g.Result.Cycles, 60, 3)
	a := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))
	b := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("fault %d (%v): %v then %v", i, faults[i], a.Outcomes[i], b.Outcomes[i])
		}
	}
}

func TestFaultBeforeGoldenDivergence(t *testing.T) {
	// A fault at cycle 1 into a never-used high register must be masked.
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Structure: lifetime.StructRF, Entry: 255, Bit: 63, Cycle: 1}
	if got := r.RunFault(f, &g.Result); got != Masked {
		t.Errorf("unused-register fault = %v, want Masked", got)
	}
}

func TestOutcomeStringAndDist(t *testing.T) {
	var d Dist
	d.AddN(Masked, 90)
	d.AddN(SDC, 5)
	d.AddN(Crash, 5)
	if d.Total() != 100 {
		t.Fatal("total")
	}
	if d.AVF() != 0.10 {
		t.Errorf("AVF = %v", d.AVF())
	}
	if fit := d.FIT(64*64, 0.01); fit != 0.10*0.01*64*64 {
		t.Errorf("FIT = %v", fit)
	}
	if Masked.String() != "Masked" || Unknown.String() != "Unknown" {
		t.Error("outcome names")
	}
	if d.String() == "" || d.Share(SDC) != 0.05 {
		t.Error("dist formatting")
	}
}

func TestClassifyTable(t *testing.T) {
	golden := cpu.RunResult{Halt: cpu.HaltOK, Output: []uint64{1, 2}, ExcLog: nil}
	tests := []struct {
		res  cpu.RunResult
		want Outcome
	}{
		{cpu.RunResult{Halt: cpu.HaltOK, Output: []uint64{1, 2}}, Masked},
		{cpu.RunResult{Halt: cpu.HaltOK, Output: []uint64{1, 3}}, SDC},
		{cpu.RunResult{Halt: cpu.HaltOK, Output: []uint64{1}}, SDC},
		{cpu.RunResult{Halt: cpu.HaltOK, Output: []uint64{1, 2}, ExcLog: []uint32{9}}, DUE},
		{cpu.RunResult{Halt: cpu.HaltOK, Output: []uint64{1, 3}, ExcLog: []uint32{9}}, SDC},
		{cpu.RunResult{Halt: cpu.CycleLimit}, Timeout},
		{cpu.RunResult{Halt: cpu.CrashPageFault}, Crash},
		{cpu.RunResult{Halt: cpu.CrashBadFetch}, Crash},
		{cpu.RunResult{Halt: cpu.CrashDivZero}, Crash},
	}
	for _, tt := range tests {
		if got := Classify(tt.res, &golden); got != tt.want {
			t.Errorf("Classify(%v/%v) = %v, want %v", tt.res.Halt, tt.res.Output, got, tt.want)
		}
	}
}

func TestTruncatedGoldenAndFaults(t *testing.T) {
	r := NewRunner(target(t, "bzip2"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	cut := g.Result.Cycles / 2
	tg, err := r.RunGoldenTruncated(cut)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Hash == 0 {
		t.Error("state hash missing")
	}
	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF,
		c.StructureEntries(lifetime.StructRF), 64, cut, 80, 11)
	res := mustRun(t)(r.Run(context.Background(), faults, nil, Plan{Cut: tg}))
	if res.Dist.Total() != 80 {
		t.Fatal("missing outcomes")
	}
	// Truncated classification has no SDC/Timeout classes.
	if res.Dist[SDC] != 0 || res.Dist[Timeout] != 0 {
		t.Errorf("truncated run produced SDC/Timeout: %v", res.Dist)
	}
	if res.Dist[Masked]+res.Dist[Unknown] == 0 {
		t.Errorf("no Masked/Unknown outcomes at all: %v", res.Dist)
	}
	t.Logf("truncated dist: %v", res.Dist)
}

func TestTruncatedFaultMaskedWhenOverwritten(t *testing.T) {
	// Identical machine states at the cut must classify as Masked even
	// though the run never finishes.
	r := NewRunner(target(t, "bzip2"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	cut := g.Result.Cycles / 2
	tg, err := r.RunGoldenTruncated(cut)
	if err != nil {
		t.Fatal(err)
	}
	// Unused high RF entry: flipped bit lives in a register that is never
	// allocated, so the hash (architecturally reachable state) matches.
	f := fault.Fault{Structure: lifetime.StructRF, Entry: 250, Bit: 1, Cycle: 5}
	if got := r.RunFaultTruncated(f, tg); got != Masked {
		t.Errorf("dead fault at cut = %v, want Masked", got)
	}
}
