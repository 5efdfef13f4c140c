package campaign

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
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
// faults/seed 1 at two workers — machine clones, detailed cycles simulated,
// snapshot hit, what the hand-off did (runs the interpreter finished,
// attempts that fell back, instructions interpreted), the faults
// classified dead at the flip, those the overwrite watch decided and the
// hand-offs the convergence exit decided. It starts from an empty machine
// table. The golden run (cold) freezes the golden ladder, three rungs, so
// a Forked walk is four segments, each cloning its rung, on that Runner
// and on one that ran none (warm, the artifact-cache-hit path). On a cache
// holding no ladder the walk freezes the cache's ladder as it passes the
// rungs, one clone each (none where a segment starts on one); the Runner's
// next campaign and a fresh Runner sharing the cache are served it. In a
// process with no golden ladder (first, after the table is emptied) the
// walk is one segment from reset that freezes the three rungs, and the
// next Runner (next) walks the four segments. The ladder only moves the
// walk: every Forked row's hand-off and exit counters are equal. Replay
// has no rung and no fork, so it never hands off and never decides at the
// flip or at an overwrite.
func TestPlanWorkCounters(t *testing.T) {
	type work struct {
		clones      int64
		simCycles   uint64
		hit         bool
		handOffs    int64
		fellBack    int64
		interpInsts uint64
		deadAtFlip  int64
		overwritten int64
		converged   int64
	}
	runner := func(cache *SnapshotCache) *Runner {
		r := NewRunner(target(t, "sha"))
		r.Workers, r.Snapshots = 2, cache
		return r
	}
	resetMachines()
	cold := runner(nil)
	g, err := cold.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := cold.NewCore()
	faults := sampling.Generate(lifetime.StructRF, c.StructureEntries(lifetime.StructRF),
		c.StructureEntryBits(lifetime.StructRF), g.Result.Cycles, 1000, 1)
	warm := runner(nil)
	cached := runner(NewSnapshotCache(0))
	served := runner(cached.Snapshots)
	coldCached := runner(NewSnapshotCache(0))
	if _, err := coldCached.RunGolden(); err != nil {
		t.Fatal(err)
	}
	goldenRungs := int64(len(cold.goldenLadder().cycles) - 1)
	if goldenRungs != 3 {
		t.Errorf("the golden run froze %d rungs at two workers, want 3", goldenRungs)
	}
	rows := []struct {
		name     string
		r        *Runner
		strategy Strategy
		reset    bool // empty the machine table first
		want     work
	}{
		{"replay", cold, Replay, false, work{1000, 6152243, false, 0, 0, 0, 0, 0, 0}},
		{"forked cold", cold, Forked, false, work{172, 8595, false, 69, 0, 127949, 832, 99, 49}},
		{"forked warm", warm, Forked, false, work{172, 8595, false, 69, 0, 127949, 832, 99, 49}},
		{"forked miss", cached, Forked, false, work{193, 8595, false, 69, 0, 127949, 832, 99, 49}},
		{"forked hit", cached, Forked, false, work{193, 8437, true, 69, 0, 127949, 832, 99, 49}},
		{"forked served", served, Forked, false, work{193, 8437, true, 69, 0, 127949, 832, 99, 49}},
		{"forked cold miss", coldCached, Forked, false, work{193, 8595, false, 69, 0, 127949, 832, 99, 49}},
		{"forked first", runner(nil), Forked, true, work{172, 8602, false, 69, 0, 127949, 832, 99, 49}},
		{"forked next", runner(nil), Forked, false, work{172, 8595, false, 69, 0, 127949, 832, 99, 49}},
	}
	got := map[string]work{}
	for _, row := range rows {
		if row.reset {
			resetMachines()
		}
		res := mustRun(t)(row.r.Run(context.Background(), faults, &g.Result, Plan{Strategy: row.strategy}))
		got[row.name] = work{res.Clones, res.SimCycles, res.SnapshotHit, res.HandOffs, res.FellBack, res.InterpInsts, res.DeadAtFlip, res.Overwritten, res.Converged}
		if got[row.name] != row.want {
			t.Errorf("%s: work %+v, want %+v", row.name, got[row.name], row.want)
		}
	}
	rungs := int64(len(CheckpointSchedule(ForkSyncPoints, g.Result.Cycles)) - 1)
	for _, pair := range [][2]string{{"forked warm", "forked miss"}, {"forked cold", "forked cold miss"}} {
		if extra := got[pair[1]].clones - got[pair[0]].clones; extra != rungs-goldenRungs {
			t.Errorf("%s: freezing the ladder took %d clones, want one per rung past reset no segment starts on, %d", pair[1], extra, rungs-goldenRungs)
		}
	}
	// One walker and a clone per rung frozen, against a walker per segment.
	if first, next := got["forked first"], got["forked next"]; first.clones-1-goldenRungs != next.clones-(goldenRungs+1) {
		t.Errorf("forked first: one segment freezing %d rungs took %d clones, the next Runner's %d segments %d",
			goldenRungs, first.clones, goldenRungs+1, next.clones)
	}
	if hit, served := got["forked hit"], got["forked served"]; hit != served {
		t.Errorf("the freezing Runner's next campaign did %+v, a fresh Runner served the ladder %+v", hit, served)
	}
}

// TestLadderOnlyMovesTheSweep: a SnapshotCache lets the Forked walkers
// freeze a ladder's rungs on a miss and cut the walk at them on a hit, and
// changes nothing else. On the RF lists of sha and gcc and the L1D list of
// djpeg (whose runs retry the hand-off at rung cycles) under both timing
// configurations, a Runner with no cache, which walks from its golden
// run's rungs, and a Runner with a cache, whose first campaign freezes the
// ladder and whose second is served it, classify the same faults alike and
// agree on every counter of what the continuations did: hand-offs,
// fall-backs, instructions interpreted, dead at the flip, overwritten,
// converged. Only SimCycles, Clones and SnapshotHit may differ. Each list is mostly faults the
// ACE-like analysis says are read, the kind a MeRLiN campaign injects and
// the kind that hands off; on djpeg some must fall back and retry. -short
// and -race check sha and djpeg on shorter lists.
func TestLadderOnlyMovesTheSweep(t *testing.T) {
	live, dead := 800, 200
	lists := []struct {
		wl string
		s  lifetime.StructureID
	}{{"sha", lifetime.StructRF}, {"djpeg", lifetime.StructL1D}, {"gcc", lifetime.StructRF}}
	if testing.Short() || raceEnabled {
		live, dead, lists = 100, 25, lists[:2]
	}
	for _, tc := range lists {
		for _, cfg := range timingConfigs {
			id := fmt.Sprintf("%s/%v/%s", tc.wl, tc.s, cfg.name)
			tgt := Target{Cfg: cfg.cfg, Prog: workloads.MustGet(tc.wl).Program()}
			plain := NewRunner(tgt)
			g, err := plain.RunGolden(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			cached := NewRunner(tgt)
			cached.Snapshots = NewSnapshotCache(0)
			c := plain.NewCore()
			entries, bits := c.StructureEntries(tc.s), c.StructureEntryBits(tc.s)
			ace := g.Tracer.Analysis(tc.s)
			var faults []fault.Fault
			nLive, nDead := 0, 0
			for _, f := range sampling.Generate(tc.s, entries, bits, g.Result.Cycles, 40*(live+dead), 3) {
				if _, read := ace.Find(f.Entry, f.Byte(), f.Cycle); read && nLive < live {
					nLive++
					faults = append(faults, f)
				} else if !read && nDead < dead {
					nDead++
					faults = append(faults, f)
				}
			}
			want := mustRun(t)(plain.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
			counters := func(w Work) [6]int64 {
				return [6]int64{w.HandOffs, w.FellBack, int64(w.InterpInsts), w.DeadAtFlip, w.Overwritten, w.Converged}
			}
			var got *Result
			for _, hit := range []bool{false, true} {
				got = mustRun(t)(cached.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
				if got.SnapshotHit != hit || want.SnapshotHit {
					t.Fatalf("%s: SnapshotHit %v on a cache that holds a ladder: %v; %v without a cache", id, got.SnapshotHit, hit, want.SnapshotHit)
				}
				if !slices.Equal(got.Outcomes, want.Outcomes) {
					t.Errorf("%s: outcomes differ with a cache that holds a ladder: %v", id, hit)
				}
				if counters(got.Work) != counters(want.Work) {
					t.Errorf("%s: hand-offs, fall-backs, interpreted, dead at the flip, overwritten, converged %v with a cache that holds a ladder: %v, %v without",
						id, counters(got.Work), hit, counters(want.Work))
				}
			}
			if tc.s == lifetime.StructL1D && want.FellBack == 0 {
				t.Errorf("%s: no hand-off fell back, so no run retried at a rung cycle", id)
			}
			t.Logf("%s: %d faults (%d read), %d handed off, %d fell back; %d/%d detailed cycles and %d/%d clones with/without the ladder",
				id, len(faults), nLive, want.HandOffs, want.FellBack, got.SimCycles, want.SimCycles, got.Clones, want.Clones)
		}
	}
}
