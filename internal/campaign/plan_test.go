package campaign

import (
	"context"
	"fmt"
	"testing"

	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
)

var allStrategies = []Strategy{Replay, Forked}

// TestEmptyCampaignDoesNoWork: under every strategy and stop rule, a
// campaign with nothing to inject (every sampled fault was ACE-masked)
// simulates nothing, clones nothing and never asks the SnapshotCache for a
// ladder; a non-empty truncated campaign carries the same Wall / Serial /
// SimCycles stamps as a full-run one.
func TestEmptyCampaignDoesNoWork(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	tg, err := r.RunGoldenTruncated(g.Result.Cycles / 2)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSnapshotCache(0)
	r.Snapshots = src
	for _, s := range allStrategies {
		for _, cut := range []*TruncatedGolden{nil, tg} {
			res := mustRun(t)(r.Run(context.Background(), nil, &g.Result, Plan{Strategy: s, Cut: cut}))
			if res.SimCycles != 0 || res.Clones != 0 || len(res.Outcomes) != 0 {
				t.Errorf("%v (truncated %v): empty campaign did work: SimCycles %d Clones %d Outcomes %d",
					s, cut != nil, res.SimCycles, res.Clones, len(res.Outcomes))
			}
		}
	}
	if st := src.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("empty campaigns asked the SnapshotCache for a ladder %d times", st.Hits+st.Misses)
	}

	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF, c.StructureEntries(lifetime.StructRF), 64, tg.Cut, 20, 3)
	res := mustRun(t)(r.Run(context.Background(), faults, nil, Plan{Cut: tg}))
	if res.Wall <= 0 || res.Serial <= 0 || res.SimCycles == 0 {
		t.Errorf("truncated campaign left Wall %v Serial %v SimCycles %d unstamped", res.Wall, res.Serial, res.SimCycles)
	}
}

// TestPlansAgreeOnGeneratedKernels: on seeded stress kernels of every
// class, Run under every strategy and worker count classifies each fault
// exactly as the per-fault reference does — RunFault at program end,
// RunFaultTruncated at a mid-run cut — and so does RunFaultFrom, the
// per-fault start from the nearest of eight rungs. A truncated run takes
// no early exit, not even dead at the flip.
func TestPlansAgreeOnGeneratedKernels(t *testing.T) {
	ctx := context.Background()
	for _, class := range gen.Classes() {
		for seed := uint64(1); seed <= 3; seed++ {
			r := NewRunner(Target{Cfg: cpu.DefaultConfig(), Prog: gen.Kernel(class, seed)})
			g, err := r.RunGolden()
			if err != nil {
				t.Fatal(err)
			}
			tg, err := r.RunGoldenTruncated(g.Result.Cycles / 2)
			if err != nil {
				t.Fatal(err)
			}
			c := r.NewCore()
			set := r.BuildCheckpoints(8, g.Result.Cycles)
			for _, st := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D} {
				sample := func(cycles uint64) []fault.Fault {
					return sampling.Generate(st, c.StructureEntries(st), c.StructureEntryBits(st), cycles, 100, int64(seed))
				}
				full, cutFaults := sample(g.Result.Cycles), sample(tg.Cut)
				want := make([]Outcome, len(full))
				wantCut := make([]Outcome, len(cutFaults))
				for i := range full {
					want[i] = r.RunFault(full[i], &g.Result)
					wantCut[i] = r.RunFaultTruncated(cutFaults[i], tg)
					if got := r.RunFaultFrom(set, full[i], &g.Result); got != want[i] {
						t.Errorf("%s/%d/%v fault %v: RunFaultFrom %v, RunFault %v", class, seed, st, full[i], got, want[i])
					}
				}
				for _, s := range allStrategies {
					for _, workers := range []int{1, 4} {
						r.Workers = workers
						name := fmt.Sprintf("%s/%d/%v %v x%d", class, seed, st, s, workers)
						got := mustRun(t)(r.Run(ctx, full, &g.Result, Plan{Strategy: s}))
						for i := range full {
							if got.Outcomes[i] != want[i] {
								t.Errorf("%s fault %v: Run %v, RunFault %v", name, full[i], got.Outcomes[i], want[i])
							}
						}
					}
					gotCut := mustRun(t)(r.Run(ctx, cutFaults, nil, Plan{Strategy: s, Cut: tg}))
					if gotCut.DeadAtFlip != 0 {
						t.Errorf("%s/%d/%v %v: a truncated run took %d early exits at the flip", class, seed, st, s, gotCut.DeadAtFlip)
					}
					for i := range cutFaults {
						if gotCut.Outcomes[i] != wantCut[i] {
							t.Errorf("%s/%d/%v %v fault %v: truncated Run %v, RunFaultTruncated %v",
								class, seed, st, s, cutFaults[i], gotCut.Outcomes[i], wantCut[i])
						}
					}
				}
			}
		}
	}
}

// TestPlanWorkCounters pins the work each strategy does on sha/RF/1000
// faults/seed 1 — machine clones, detailed cycles simulated, snapshot hit,
// what the hand-off did (runs the interpreter finished, attempts that fell
// back, instructions interpreted) and the faults classified dead at the
// flip — with and without a SnapshotCache (cold, then warm). Replay has no
// rung and no fork, so it never hands off and never decides at the flip.
func TestPlanWorkCounters(t *testing.T) {
	type work struct {
		clones      int64
		simCycles   uint64
		hit         bool
		handOffs    int64
		fellBack    int64
		interpInsts uint64
		deadAtFlip  int64
	}
	cold := map[Strategy]work{
		Replay: {1000, 6152243, false, 0, 0, 0, 0},
		Forked: {193, 33000, false, 52, 0, 457371, 832},
	}
	warm := map[Strategy]work{
		Replay: cold[Replay], // no ladder to share
		Forked: {193, 27083, true, 52, 0, 457371, 832},
	}
	for _, shared := range []bool{false, true} {
		r := NewRunner(target(t, "sha"))
		g, err := r.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		c := r.NewCore()
		faults := sampling.Generate(lifetime.StructRF, c.StructureEntries(lifetime.StructRF),
			c.StructureEntryBits(lifetime.StructRF), g.Result.Cycles, 1000, 1)
		if shared {
			r.Snapshots = NewSnapshotCache(0)
		}
		rounds := []map[Strategy]work{cold}
		if shared {
			rounds = append(rounds, warm)
		}
		for round, want := range rounds {
			for _, s := range allStrategies {
				if s == Replay && shared && round == 0 {
					continue // 1000 from-reset replays: once per runner is enough
				}
				res := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: s}))
				if got := (work{res.Clones, res.SimCycles, res.SnapshotHit, res.HandOffs, res.FellBack, res.InterpInsts, res.DeadAtFlip}); got != want[s] {
					t.Errorf("shared=%v round %d %v: work %+v, want %+v", shared, round, s, got, want[s])
				}
			}
		}
	}
}
