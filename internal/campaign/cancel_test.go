package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
)

// TestSchedulerCancellation is the differential cancellation suite: for
// every strategy, cancelling mid-campaign must (a) stop within one fault
// of the cancellation point (exact with a single worker), (b) propagate
// context.Canceled, (c) return a partial Result whose classified outcomes
// are bit-identical to an uncancelled run's, and (d) keep the accounting
// consistent: Dist.Total() + Cancelled == len(faults).
func TestSchedulerCancellation(t *testing.T) {
	const nFaults = 60
	const cancelAfter = 10

	r := NewRunner(target(t, "sha"))
	r.Workers = 1 // single worker makes the stop bound exact
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF,
		c.StructureEntries(lifetime.StructRF), 64, g.Result.Cycles, nFaults, 23)
	ref := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))

	for _, strat := range allStrategies {
		ctx, cancel := context.WithCancel(context.Background())
		var classified atomic.Int64
		res, err := r.Run(ctx, faults, &g.Result, Plan{Strategy: strat,
			OnOutcome: func(idx int, f fault.Fault, o Outcome) {
				if classified.Add(1) == cancelAfter {
					cancel()
				}
			}})
		cancel()

		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", strat, err)
		}
		total := res.Dist.Total()
		if total+res.Cancelled != len(faults) {
			t.Fatalf("%v: Dist.Total() %d + Cancelled %d != %d faults",
				strat, total, res.Cancelled, len(faults))
		}
		if res.Injected != total {
			t.Errorf("%v: Injected %d != classified %d", strat, res.Injected, total)
		}
		if res.Cancelled == 0 {
			t.Fatalf("%v: campaign ran to completion despite cancellation", strat)
		}
		// Stop bound: the fault mid-flight when cancel() fired may finish,
		// nothing beyond it may start.
		if total > cancelAfter+1 {
			t.Errorf("%v: classified %d faults, want <= %d (cancel after %d + one in flight)",
				strat, total, cancelAfter+1, cancelAfter)
		}
		// Everything classified before the cut is bit-identical to the
		// uncancelled reference; everything after carries the sentinel.
		marked := 0
		for i, o := range res.Outcomes {
			if o == Cancelled {
				marked++
				continue
			}
			if o != ref.Outcomes[i] {
				t.Errorf("%v: fault %d classified %v, reference %v", strat, i, o, ref.Outcomes[i])
			}
		}
		if marked != res.Cancelled {
			t.Errorf("%v: %d Cancelled sentinels vs Cancelled count %d", strat, marked, res.Cancelled)
		}
	}
}

// TestSchedulerCancellationMultiWorker pins the documented stop bound
// under real concurrency: with w workers, at most one in-flight fault per
// worker (plus, for the forked strategy, one handed-off job) may finish
// after the cancellation point.
func TestSchedulerCancellationMultiWorker(t *testing.T) {
	const nFaults = 120
	const cancelAfter = 10
	const workers = 4

	r := NewRunner(target(t, "sha"))
	r.Workers = workers
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF,
		c.StructureEntries(lifetime.StructRF), 64, g.Result.Cycles, nFaults, 29)

	for _, strat := range allStrategies {
		ctx, cancel := context.WithCancel(context.Background())
		var classified atomic.Int64
		res, err := r.Run(ctx, faults, &g.Result, Plan{Strategy: strat,
			OnOutcome: func(idx int, f fault.Fault, o Outcome) {
				if classified.Add(1) == cancelAfter {
					cancel()
				}
			}})
		cancel()

		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", strat, err)
		}
		if total := res.Dist.Total(); total > cancelAfter+workers+1 {
			t.Errorf("%v: classified %d faults after cancel at %d with %d workers (bound %d)",
				strat, total, cancelAfter, workers, cancelAfter+workers+1)
		}
		if res.Dist.Total()+res.Cancelled != len(faults) {
			t.Errorf("%v: accounting broken: %d + %d != %d",
				strat, res.Dist.Total(), res.Cancelled, len(faults))
		}
	}
}

// TestPreCancelledContext: a context cancelled before the campaign starts
// must classify nothing and still return a consistent (all-cancelled)
// partial result.
func TestPreCancelledContext(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := sampling.Generate(lifetime.StructRF,
		c.StructureEntries(lifetime.StructRF), 64, g.Result.Cycles, 20, 5)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range allStrategies {
		res, err := r.Run(ctx, faults, &g.Result, Plan{Strategy: strat})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", strat, err)
		}
		if res.Cancelled == 0 || res.Dist.Total()+res.Cancelled != len(faults) {
			t.Fatalf("%v: inconsistent partial result: total %d cancelled %d of %d",
				strat, res.Dist.Total(), res.Cancelled, len(faults))
		}
	}
}

// TestOutcomeTextRoundTrip: every outcome marshals to its class name and
// back, case-insensitively; JSON carrying outcomes reads names, not ints.
func TestOutcomeTextRoundTrip(t *testing.T) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		text, err := o.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		var back Outcome
		if err := back.UnmarshalText(text); err != nil || back != o {
			t.Errorf("round trip %v -> %s -> %v (%v)", o, text, back, err)
		}
	}
	if got, err := ParseOutcome("sdc"); err != nil || got != SDC {
		t.Errorf("ParseOutcome is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseOutcome("meltdown"); err == nil {
		t.Error("ParseOutcome accepted an unknown class")
	}
	raw, err := json.Marshal([]Outcome{Masked, SDC, Crash})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `["Masked","SDC","Crash"]` {
		t.Errorf("outcome JSON = %s, want class names", raw)
	}
}

// TestStrategyTextRoundTrip: strategies marshal as their flag names.
func TestStrategyTextRoundTrip(t *testing.T) {
	for _, s := range allStrategies {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Strategy
		if err := back.UnmarshalText(text); err != nil || back != s {
			t.Errorf("round trip %v -> %s -> %v (%v)", s, text, back, err)
		}
	}
	var s Strategy
	if err := s.UnmarshalText([]byte("FORKED")); err != nil || s != Forked {
		t.Errorf("case-insensitive unmarshal: %v, %v", s, err)
	}
	if raw, _ := json.Marshal(Forked); string(raw) != `"forked"` {
		t.Errorf("strategy JSON = %s", raw)
	}
}
