package campaign

import (
	"context"
	"sync"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
)

// TestOnOutcomeHook: every strategy reports each fault exactly once, with
// the outcome it also records in the result, under concurrency.
func TestOnOutcomeHook(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	r.Workers = 2
	golden, err := r.RunGolden(lifetime.StructRF)
	if err != nil {
		t.Fatal(err)
	}
	core := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF,
		core.StructureEntries(lifetime.StructRF),
		core.StructureEntryBits(lifetime.StructRF),
		golden.Result.Cycles, 40, 7)

	for _, strat := range allStrategies {
		var mu sync.Mutex
		seen := make(map[int]Outcome)
		var hookFaults []fault.Fault
		hook := func(idx int, f fault.Fault, o Outcome) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[idx]; dup {
				t.Errorf("%v: fault %d reported twice", strat, idx)
			}
			seen[idx] = o
			hookFaults = append(hookFaults, f)
		}
		res := mustRun(t)(r.Run(context.Background(), faults, &golden.Result, Plan{Strategy: strat, OnOutcome: hook}))

		if len(seen) != len(faults) {
			t.Fatalf("%v: hook saw %d faults, want %d", strat, len(seen), len(faults))
		}
		for idx, o := range seen {
			if res.Outcomes[idx] != o {
				t.Errorf("%v: fault %d hook outcome %v != result %v", strat, idx, o, res.Outcomes[idx])
			}
		}
		for i, f := range hookFaults {
			if f.Structure != lifetime.StructRF {
				t.Fatalf("%v: hook fault %d has wrong structure %v", strat, i, f.Structure)
			}
		}
	}
}

// TestNoRecoveredRuntimePanic: inject recovers any Go panic as outcome
// Crash, so a simulator index bug would surface as a shifted report, not a
// red test. Run the reference fault lists the way inject does but report
// what was recovered: only *cpu.AssertError (the modelled Assert outcome)
// may ever be panicked by the simulator.
func TestNoRecoveredRuntimePanic(t *testing.T) {
	for _, tc := range []struct {
		wl string
		s  lifetime.StructureID
	}{
		{"sha", lifetime.StructRF},
		{"djpeg", lifetime.StructL1D},
		{"qsort", lifetime.StructSQ},
	} {
		r := NewRunner(target(t, tc.wl))
		g, err := r.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		set := r.BuildCheckpoints(6, g.Result.Cycles)
		faults := strategyFaultList(r.NewCore(), tc.s, g.Result.Cycles, 80, 17, set.cycles[1:])
		for _, f := range faults {
			func() {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(*cpu.AssertError); !ok {
							t.Errorf("%s/%v fault %v: simulator panicked with %T: %v", tc.wl, tc.s, f, p, p)
						}
					}
				}()
				c := set.before(f.Cycle).Clone()
				for c.Cycle()+1 < f.Cycle && c.Halted() == cpu.Running {
					c.Step()
				}
				c.FlipBit(f.Structure, int(f.Entry), int(f.Bit))
				r.classifyAgainst(c, f, c.RenameSeq(), &g.Result, set, new(handOff))
			}()
		}
	}
}
