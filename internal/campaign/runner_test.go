package campaign

import (
	"context"
	"strings"
	"sync"
	"testing"

	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
)

// TestValidate: negative counts and zero budgets are reported as errors
// instead of being silently read as "use the default".
func TestValidate(t *testing.T) {
	base := func() *Runner { return NewRunner(target(t, "sha")) }

	if err := base().Validate(); err != nil {
		t.Fatalf("NewRunner defaults invalid: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Runner)
		want   string
	}{
		{"negative workers", func(r *Runner) { r.Workers = -1 }, "Workers"},
		{"negative maxforks", func(r *Runner) { r.MaxForks = -4 }, "MaxForks"},
		{"zero timeout factor", func(r *Runner) { r.TimeoutFactor = 0 }, "TimeoutFactor"},
		{"zero golden budget", func(r *Runner) { r.GoldenBudget = 0 }, "GoldenBudget"},
	}
	for _, tc := range cases {
		r := base()
		tc.mutate(r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error naming %s", tc.name, err, tc.want)
		}
	}
}

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

	for _, strat := range []Strategy{Replay, Checkpointed, Forked} {
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
		res := mustRun(t)(r.Run(context.Background(), faults, &golden.Result, Plan{Strategy: strat, Checkpoints: 4, OnOutcome: hook}))

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
