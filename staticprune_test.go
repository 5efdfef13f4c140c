package merlin

import (
	"context"
	"reflect"
	"testing"
)

// TestWithStaticPruneBitIdentical: a campaign run with the guestflow
// static pre-pruner must produce a bit-identical report to the plain
// campaign — same distribution, same groups, same representatives, same
// extrapolation — while actually pruning a nonzero fraction of the RF
// fault list statically. The pruner is an optimisation with a proof
// obligation, not a new estimator.
func TestWithStaticPruneBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []string{"qsort", "sha"} {
		plain := mustRunSession(t, ctx, wl, WithStructure(RF), WithFaults(400), WithSeed(7))
		pruned := mustRunSession(t, ctx, wl, WithStructure(RF), WithFaults(400), WithSeed(7), WithStaticPrune())

		if pruned.StaticPruned == 0 {
			t.Errorf("%s: static pruner classified 0 of %d faults — the option did nothing", wl, pruned.InitialFaults)
		}
		if plain.StaticPruned != 0 {
			t.Errorf("%s: plain campaign reports StaticPruned=%d", wl, plain.StaticPruned)
		}

		// Everything deterministic must match exactly; only the wall-clock
		// fields and the StaticPruned counter itself may differ.
		a, b := *plain, *pruned
		a.StaticPruned, b.StaticPruned = 0, 0
		a.Wall, b.Wall = 0, 0
		a.Serial, b.Serial = 0, 0
		a.CyclesPerSec, b.CyclesPerSec = 0, 0
		a.Clones, b.Clones = 0, 0
		a.CloneTime, b.CloneTime = 0, 0
		a.SimCycles, b.SimCycles = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: pruned report diverged from plain:\nplain  %+v\npruned %+v", wl, a, b)
		}
		if pruned.StaticPruned > pruned.ACEMasked {
			t.Errorf("%s: StaticPruned %d exceeds ACEMasked %d — pruned faults must be a subset",
				wl, pruned.StaticPruned, pruned.ACEMasked)
		}
	}
}

func mustRunSession(t *testing.T, ctx context.Context, wl string, opts ...Option) *Report {
	t.Helper()
	s, err := Start(ctx, wl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStaticPruneProgress: the reduce event carries the prune
// count so the CLI and the NDJSON stream see the same number.
func TestStaticPruneProgress(t *testing.T) {
	ctx := context.Background()
	var got int
	s, err := Start(ctx, "qsort",
		WithStructure(RF), WithFaults(200), WithSeed(3), WithStaticPrune(),
		WithProgress(func(ev CampaignEvent) {
			if ev.Type == "reduce" {
				got = ev.StaticPruned
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != rep.StaticPruned || got == 0 {
		t.Errorf("reduce progress carried StaticPruned=%d, report says %d", got, rep.StaticPruned)
	}
}
