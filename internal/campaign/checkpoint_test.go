package campaign

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// TestCloneEquivalence: a cloned core stepped forward must behave exactly
// like the original continuing (and the original must be undisturbed by
// the cloning).
func TestCloneEquivalence(t *testing.T) {
	r := NewRunner(target(t, "qsort"))
	ref := r.NewCore()
	refRes := ref.Run(10_000_000)

	c := r.NewCore()
	for c.Cycle() < refRes.Cycles/3 {
		c.Step()
	}
	clone := c.Clone()

	origRes := c.Run(10_000_000)
	cloneRes := clone.Run(10_000_000)

	for name, got := range map[string]cpu.RunResult{"original": origRes, "clone": cloneRes} {
		if got.Halt != refRes.Halt || got.Cycles != refRes.Cycles ||
			!reflect.DeepEqual(got.Output, refRes.Output) {
			t.Errorf("%s diverged: halt=%v cycles=%d (ref %d)", name, got.Halt, got.Cycles, refRes.Cycles)
		}
	}
}

// TestCloneIsolation: mutating a clone (fault injection) must not affect
// the original.
func TestCloneIsolation(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	for c.Cycle() < 100 {
		c.Step()
	}
	clone := c.Clone()
	// Smash the clone's state thoroughly.
	for e := 0; e < 16; e++ {
		for b := 0; b < 64; b += 7 {
			clone.FlipBit(lifetime.StructRF, e, b)
		}
	}
	clone.Run(3 * g.Result.Cycles)
	// The original must still complete the golden run exactly.
	res := c.Run(10_000_000)
	if res.Halt != cpu.HaltOK || !reflect.DeepEqual(res.Output, g.Result.Output) {
		t.Fatalf("original corrupted by clone mutation: %v", res.Halt)
	}
}

// TestCheckpointedCampaignIdentical: checkpoint-accelerated injection
// (RunFaultFrom over a six-snapshot set) must classify every fault of a
// campaign's list exactly as from-reset re-execution does.
func TestCheckpointedCampaignIdentical(t *testing.T) {
	for _, wl := range []string{"sha", "qsort"} {
		r := NewRunner(target(t, wl))
		g, err := r.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		c := r.NewCore()
		set := r.BuildCheckpoints(6, g.Result.Cycles)
		for _, s := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D} {
			faults := sampling.Generate(s, c.StructureEntries(s), c.StructureEntryBits(s),
				g.Result.Cycles, 60, 21)
			plain := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))
			for i, f := range faults {
				if fast := r.RunFaultFrom(set, f, &g.Result); plain.Outcomes[i] != fast {
					t.Errorf("%s/%v fault %v: replay %v vs checkpointed %v", wl, s, f, plain.Outcomes[i], fast)
				}
			}
		}
	}
}

// TestCheckpointEdgeCycles: faults at the very first cycles and exactly at
// snapshot boundaries must be placeable.
func TestCheckpointEdgeCycles(t *testing.T) {
	r := NewRunner(target(t, "fft"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	set := r.BuildCheckpoints(4, g.Result.Cycles)
	for _, cyc := range []uint64{1, 2, set.cycles[1], set.cycles[1] + 1, g.Result.Cycles} {
		f := sampling.Generate(lifetime.StructRF, 256, 64, 1, 1, int64(cyc))[0]
		f.Cycle = cyc
		plain := r.RunFault(f, &g.Result)
		fast := r.RunFaultFrom(set, f, &g.Result)
		if plain != fast {
			t.Errorf("cycle %d: %v vs %v", cyc, plain, fast)
		}
	}
}

// TestSweepLadderMatchesReplay: on every workload and both timing-pin
// configurations, a Forked campaign on a cold SnapshotCache leaves the
// cache exactly one entry, the ladder its walk froze: its rungs sit at
// CheckpointSchedule's cycles and each is state-equal to the rung
// BuildCheckpoints replays there. The campaign's faults all lie in the
// first half of the run, so the walker freezes the later rungs after its
// last fault. Its outcomes equal those of a campaign without a cache, and
// the next campaign on the cache is served the ladder. -short and -race
// check shortWorkloads only.
func TestSweepLadderMatchesReplay(t *testing.T) {
	names := workloads.Names("")
	if testing.Short() || raceEnabled {
		names = shortWorkloads
	}
	ctx := context.Background()
	for _, name := range names {
		for _, tc := range timingConfigs {
			id := name + "/" + tc.name
			plain := NewRunner(Target{Cfg: tc.cfg, Prog: workloads.MustGet(name).Program()})
			g, err := plain.RunGolden()
			if err != nil {
				t.Fatal(err)
			}
			c := plain.NewCore()
			faults := sampling.Generate(lifetime.StructRF, c.StructureEntries(lifetime.StructRF),
				c.StructureEntryBits(lifetime.StructRF), g.Result.Cycles/2, 20, 5)
			want := mustRun(t)(plain.Run(ctx, faults, &g.Result, Plan{Strategy: Forked}))

			cold := NewRunner(plain.Target)
			cold.Snapshots = NewSnapshotCache(0)
			got := mustRun(t)(cold.Run(ctx, faults, &g.Result, Plan{Strategy: Forked}))
			if got.SnapshotHit || !slices.Equal(got.Outcomes, want.Outcomes) {
				t.Errorf("%s: a cold-cache campaign hit %v, outcomes equal to no cache's %v", id, got.SnapshotHit, slices.Equal(got.Outcomes, want.Outcomes))
			}
			if st := cold.Snapshots.Stats(); st.Misses != 1 || st.Entries != 1 {
				t.Fatalf("%s: the sweep left the cache %+v, want its one frozen ladder", id, st)
			}
			ladder := cold.Snapshots.Get(cold.ladderKey(g.Result.Cycles))
			replay := plain.BuildCheckpoints(ForkSyncPoints, g.Result.Cycles)
			if sched := CheckpointSchedule(ForkSyncPoints, g.Result.Cycles); !slices.Equal(ladder.cycles, sched) || !slices.Equal(replay.cycles, sched) {
				t.Fatalf("%s: frozen rungs at %v, replayed at %v, schedule %v", id, ladder.cycles, replay.cycles, sched)
			}
			if len(ladder.cycles) < 2 {
				t.Errorf("%s: %d-cycle run froze no rung past reset", id, g.Result.Cycles)
			}
			for i, cyc := range ladder.cycles {
				if !cpu.StateEqual(ladder.cores[i], replay.cores[i]) {
					t.Errorf("%s: frozen rung at cycle %d differs from the replayed one", id, cyc)
				}
			}

			again := mustRun(t)(cold.Run(ctx, faults, &g.Result, Plan{Strategy: Forked}))
			if !again.SnapshotHit || !slices.Equal(again.Outcomes, want.Outcomes) {
				t.Errorf("%s: the next campaign hit %v, outcomes equal to no cache's %v", id, again.SnapshotHit, slices.Equal(again.Outcomes, want.Outcomes))
			}
		}
	}
}
