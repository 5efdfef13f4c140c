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

// TestGoldenLadderMatchesReplay: on every workload and both timing-pin
// configurations, the ladder a traced (RF, SQ, L1D) golden run freezes into
// its Runner's SnapshotCache as it goes is the cache's one entry, sits at
// CheckpointSchedule's cycles, and each rung is state-equal to the rung
// BuildCheckpoints replays there; and freezing leaves the traced run
// itself unchanged — its result, every structure's intervals and the
// branch trace match those of a golden run without a cache, which freezes
// nothing. -short and -race check shortWorkloads only.
func TestGoldenLadderMatchesReplay(t *testing.T) {
	names := workloads.Names("")
	if testing.Short() || raceEnabled {
		names = shortWorkloads
	}
	for _, name := range names {
		for _, tc := range timingConfigs {
			id := name + "/" + tc.name
			tgt := Target{Cfg: tc.cfg, Prog: workloads.MustGet(name).Program()}
			frozen := NewRunner(tgt)
			frozen.Snapshots = NewSnapshotCache(0)
			g, err := frozen.RunGolden(allStructures...)
			if err != nil {
				t.Fatal(err)
			}
			plain := NewRunner(tgt)
			want, err := plain.RunGolden(allStructures...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Result, want.Result) {
				t.Errorf("%s: freezing changed the golden run's result", id)
			}
			for _, s := range allStructures {
				if !reflect.DeepEqual(g.Tracer.Analysis(s).Intervals, want.Tracer.Analysis(s).Intervals) {
					t.Errorf("%s/%v: freezing changed the intervals", id, s)
				}
			}
			if !reflect.DeepEqual(g.Tracer.Branches, want.Tracer.Branches) {
				t.Errorf("%s: freezing changed the branch trace", id)
			}

			ladder, hit := frozen.Snapshots.GetOrBuild(frozen.ladderKey(g.Result.Cycles), func() *CheckpointSet { return nil })
			if st := frozen.Snapshots.Stats(); !hit || st.Misses != 1 || st.Entries != 1 {
				t.Fatalf("%s: the golden run left the cache %+v (hit %v), want its one frozen ladder", id, st, hit)
			}
			replay := plain.BuildCheckpoints(ForkSyncPoints, g.Result.Cycles)
			if sched := CheckpointSchedule(ForkSyncPoints, g.Result.Cycles); !slices.Equal(ladder.cycles, sched) || !slices.Equal(replay.cycles, sched) {
				t.Fatalf("%s: frozen rungs at %v, replayed at %v, schedule %v", id, ladder.cycles, replay.cycles, sched)
			}
			if len(ladder.cycles) < 2 {
				t.Errorf("%s: %d-cycle golden run froze no rung past reset", id, g.Result.Cycles)
			}
			for i, cyc := range ladder.cycles {
				if !cpu.StateEqual(ladder.cores[i], replay.cores[i]) {
					t.Errorf("%s: frozen rung at cycle %d differs from the replayed one", id, cyc)
				}
			}
		}
	}
}
