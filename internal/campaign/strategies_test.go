package campaign

import (
	"context"
	"strings"
	"testing"

	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
)

// strategyFaultList draws a randomized list for one structure and appends
// the scheduler's edge cases: cycle 0 (reset-state injection), cycle 1,
// faults landing exactly on checkpoint/fork cycles and one cycle after,
// the golden run's last cycle, and two faults sharing one fork cycle.
func strategyFaultList(c interface {
	StructureEntries(lifetime.StructureID) int
	StructureEntryBits(lifetime.StructureID) int
}, s lifetime.StructureID, goldenCycles uint64, n int, seed int64, ckptCycles []uint64) []fault.Fault {
	faults := sampling.Generate(s, c.StructureEntries(s), c.StructureEntryBits(s), goldenCycles, n, seed)
	edges := []uint64{0, 1, 2, goldenCycles}
	for _, cyc := range ckptCycles {
		edges = append(edges, cyc, cyc+1)
	}
	for i, cyc := range edges {
		f := faults[i%n]
		f.Cycle = cyc
		faults = append(faults, f)
	}
	// Two distinct faults at the identical cycle: one fork snapshot must
	// serve both.
	same := faults[0]
	same.Entry = (same.Entry + 1) % int32(c.StructureEntries(s))
	faults = append(faults, same)
	return faults
}

// TestStrategyDifferential: for randomized fault lists over three
// workloads (one per target structure), Replay, Forked and the per-fault
// start from a rung (RunFaultFrom) must produce identical per-fault
// outcomes.
func TestStrategyDifferential(t *testing.T) {
	const k = 5
	cases := []struct {
		wl string
		s  lifetime.StructureID
	}{
		{"sha", lifetime.StructRF},
		{"qsort", lifetime.StructL1D},
		{"fft", lifetime.StructSQ},
	}
	for wi, tc := range cases {
		r := NewRunner(target(t, tc.wl))
		g, err := r.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		set := r.BuildCheckpoints(k, g.Result.Cycles)
		faults := strategyFaultList(r.NewCore(), tc.s, g.Result.Cycles, 50, int64(31+wi), set.cycles[1:])

		ctx := context.Background()
		replay := mustRun(t)(r.Run(ctx, faults, &g.Result, Plan{}))
		forked := mustRun(t)(r.Run(ctx, faults, &g.Result, Plan{Strategy: Forked}))
		for i := range faults {
			if from := r.RunFaultFrom(set, faults[i], &g.Result); replay.Outcomes[i] != from {
				t.Errorf("%s/%v fault %v: replay %v vs from a rung %v",
					tc.wl, tc.s, faults[i], replay.Outcomes[i], from)
			}
			if replay.Outcomes[i] != forked.Outcomes[i] {
				t.Errorf("%s/%v fault %v: replay %v vs forked %v",
					tc.wl, tc.s, faults[i], replay.Outcomes[i], forked.Outcomes[i])
			}
		}
		if replay.Dist != forked.Dist {
			t.Errorf("%s/%v: distributions diverge: replay %v forked %v",
				tc.wl, tc.s, replay.Dist, forked.Dist)
		}
		if forked.Serial <= 0 || forked.Wall <= 0 {
			t.Error("forked timing not recorded")
		}
	}
}

// TestForkedBoundedPool: the scheduler must stay correct with one worker,
// the fewest in-flight clones the sweep can have out (the worker's and the
// one being handed over).
func TestForkedBoundedPool(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF,
		c.StructureEntries(lifetime.StructRF), 64, g.Result.Cycles, 40, 17)
	want := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))

	r.Workers = 1
	got := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
	for i := range faults {
		if want.Outcomes[i] != got.Outcomes[i] {
			t.Errorf("fault %v: replay %v vs bounded forked %v", faults[i], want.Outcomes[i], got.Outcomes[i])
		}
	}
}

// TestForkedEmptyAndSingle: degenerate campaign sizes must not deadlock
// the producer/worker handoff.
func TestForkedEmptyAndSingle(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	if res := mustRun(t)(r.Run(context.Background(), nil, &g.Result, Plan{Strategy: Forked})); res.Dist.Total() != 0 || len(res.Outcomes) != 0 {
		t.Errorf("empty campaign: %+v", res)
	}
	one := []fault.Fault{{Structure: lifetime.StructRF, Entry: 255, Bit: 63, Cycle: 1}}
	if res := mustRun(t)(r.Run(context.Background(), one, &g.Result, Plan{Strategy: Forked})); res.Outcomes[0] != Masked {
		t.Errorf("unused-register fault = %v, want Masked", res.Outcomes[0])
	}
}

// TestCheckpointBeforeCycleZero: a cycle-0 fault must replay from the
// reset snapshot. Regression test for the fc-1 underflow, which wrapped to
// ^uint64(0) and selected a snapshot after the fault cycle.
func TestCheckpointBeforeCycleZero(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	set := r.BuildCheckpoints(4, g.Result.Cycles)
	for _, fc := range []uint64{0, 1} {
		if c := set.before(fc); c.Cycle() != 0 {
			t.Errorf("before(%d) returned snapshot at cycle %d, want the reset state", fc, c.Cycle())
		}
	}
	f := fault.Fault{Structure: lifetime.StructRF, Entry: 4, Bit: 9, Cycle: 0}
	if plain, fast := r.RunFault(f, &g.Result), r.RunFaultFrom(set, f, &g.Result); plain != fast {
		t.Errorf("cycle-0 fault: replay %v vs checkpointed %v", plain, fast)
	}
}

// TestStrategyNames: the enum round-trips through its flag spelling.
func TestStrategyNames(t *testing.T) {
	for _, s := range allStrategies {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	// The retired preset's name is refused with the two that remain listed.
	if _, err := ParseStrategy("checkpointed"); err == nil || !strings.Contains(err.Error(), "want replay or forked") {
		t.Errorf(`ParseStrategy("checkpointed") = %v, want an error listing replay and forked`, err)
	}
	if _, err := ParseStrategy("warp"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
	if Strategy(250).String() == "" {
		t.Error("out-of-range Strategy has no diagnostic name")
	}
}
