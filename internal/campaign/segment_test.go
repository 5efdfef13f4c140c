package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/workloads"
)

// edgeCycles is every rung cycle a campaign over a cycles-long run may cut
// its walk at or freeze on a SnapshotCache miss: the golden ladder's and
// the ForkSyncPoints schedule's, below limit.
func edgeCycles(ladder *CheckpointSet, cycles, limit uint64) []uint64 {
	var out []uint64
	for _, c := range append(slices.Clone(ladder.cycles), CheckpointSchedule(ForkSyncPoints, cycles)...) {
		if c < limit {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestSegmentedRunMatchesRunFault: at one to four workers, with no
// SnapshotCache, on a cache miss (the walkers freeze the ladder) and on a
// cache hit (the walk is cut at the served ladder), a Forked campaign and a
// Forked campaign under Plan.Cut classify every fault exactly as the
// per-fault references RunFault and RunFaultTruncated do. Each list spans
// every rung: beside its sampled faults it has one at and one past each
// rung cycle of the golden ladder and of the cache's schedule, and at
// cycles 0, 1 and 2. The ladder a miss stores is state-equal, rung by rung,
// to the one BuildCheckpoints replays.
func TestSegmentedRunMatchesRunFault(t *testing.T) {
	ctx := context.Background()
	lists := []struct {
		wl string
		s  lifetime.StructureID
	}{{"sha", lifetime.StructRF}, {"djpeg", lifetime.StructL1D}}
	n := 60
	if testing.Short() || raceEnabled {
		n = 20
	}
	for _, tc := range lists {
		ref := NewRunner(target(t, tc.wl))
		g, err := ref.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		tg, err := ref.RunGoldenTruncated(g.Result.Cycles / 2)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
			r := NewRunner(ref.Target)
			r.Workers = workers
			if _, err := r.RunGolden(); err != nil {
				t.Fatal(err)
			}
			if rungs := len(r.goldenLadder().cycles) - 1; (rungs == 0) != (workers == 1) {
				t.Fatalf("%s x%d: the golden run froze %d rungs", tc.wl, workers, rungs)
			}
			c := r.NewCore()
			for _, cut := range []*TruncatedGolden{nil, tg} {
				cycles, limit := g.Result.Cycles, g.Result.Cycles
				if cut != nil {
					cycles, limit = cut.Cut, cut.Cut
				}
				faults := strategyFaultList(c, tc.s, cycles, n, int64(workers), edgeCycles(r.goldenLadder(), cycles, limit))
				want := make([]Outcome, len(faults))
				for i, f := range faults {
					if cut != nil {
						want[i] = ref.RunFaultTruncated(f, cut)
					} else {
						want[i] = ref.RunFault(f, &g.Result)
					}
				}
				r.Snapshots = nil
				for _, mode := range []string{"no cache", "cache miss", "cache hit"} {
					switch mode {
					case "cache miss":
						r.Snapshots = NewSnapshotCache(0)
					}
					id := fmt.Sprintf("%s/%v x%d cut %v, %s", tc.wl, tc.s, workers, cut != nil, mode)
					got := mustRun(t)(r.Run(ctx, faults, &g.Result, Plan{Strategy: Forked, Cut: cut}))
					if got.SnapshotHit != (mode == "cache hit") {
						t.Errorf("%s: SnapshotHit %v", id, got.SnapshotHit)
					}
					for i, f := range faults {
						if got.Outcomes[i] != want[i] {
							t.Errorf("%s: fault %v: Run %v, per-fault reference %v", id, f, got.Outcomes[i], want[i])
						}
					}
					if mode != "cache miss" {
						continue
					}
					ladder := r.Snapshots.Get(r.ladderKey(cycles))
					replay := r.BuildCheckpoints(ForkSyncPoints, cycles)
					if ladder == nil || !slices.Equal(ladder.cycles, replay.cycles) {
						t.Fatalf("%s: the walkers stored %v, want rungs at %v", id, ladder, replay.cycles)
					}
					for i, cyc := range ladder.cycles {
						if !cpu.StateEqual(ladder.cores[i], replay.cores[i]) {
							t.Errorf("%s: frozen rung at cycle %d differs from the replayed one", id, cyc)
						}
					}
				}
			}
		}
	}
}

// TestGoldenLadderMatchesReplay: on every workload (shortWorkloads under
// -short and -race) at two, three and four workers, traced or not, the
// golden run of a process with no golden ladder freezes its rungs at
// CheckpointSchedule(2 x workers, cycles), and each is state-equal to (and
// hashes like) the rung BuildCheckpoints replays at that cycle; at one
// worker it freezes nothing, and the ladder is the reset state alone. A
// second golden run keeps the first ladder.
func TestGoldenLadderMatchesReplay(t *testing.T) {
	names := workloads.Names("")
	if testing.Short() || raceEnabled {
		names = shortWorkloads
	}
	for _, name := range names {
		for workers := 1; workers <= 4; workers++ {
			id := fmt.Sprintf("%s x%d", name, workers)
			resetMachines()
			r := NewRunner(target(t, name))
			r.Workers = workers
			var track []lifetime.StructureID
			if workers%2 == 0 {
				track = []lifetime.StructureID{lifetime.StructRF}
			}
			g, err := r.RunGolden(track...)
			if err != nil {
				t.Fatal(err)
			}
			ladder := r.goldenLadder()
			k := 2 * workers
			if workers == 1 {
				k = 0
			}
			replay := r.BuildCheckpoints(k, g.Result.Cycles)
			if !slices.Equal(ladder.cycles, CheckpointSchedule(k, g.Result.Cycles)) || !slices.Equal(ladder.cycles, replay.cycles) {
				t.Fatalf("%s: golden rungs at %v, replayed at %v", id, ladder.cycles, replay.cycles)
			}
			for i, cyc := range ladder.cycles {
				if ladder.cores[i].StateHash() != replay.cores[i].StateHash() || !cpu.StateEqual(ladder.cores[i], replay.cores[i]) {
					t.Errorf("%s: golden rung at cycle %d differs from the replayed one", id, cyc)
				}
			}
			if _, err := r.RunGolden(); err != nil {
				t.Fatal(err)
			}
			if r.goldenLadder() != ladder {
				t.Errorf("%s: a second golden run replaced the golden ladder", id)
			}
		}
	}
}

// TestCancelMidSegment: a Forked campaign at three workers, cut into
// segments by the golden run's rungs and on a cold SnapshotCache, cancelled
// while its walkers are inside their segments keeps every outcome it
// finished, equal to the uncancelled campaign's, marks the rest Cancelled,
// stores no ladder, and leaves no goroutine behind.
func TestCancelMidSegment(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	r.Workers = 3
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := strategyFaultList(c, lifetime.StructRF, g.Result.Cycles, 200, 31, r.goldenLadder().cycles)
	want := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))

	r.Snapshots = NewSnapshotCache(0)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var classified atomic.Int64
	res, err := r.Run(ctx, faults, &g.Result, Plan{Strategy: Forked,
		OnOutcome: func(int, fault.Fault, Outcome) {
			if classified.Add(1) == 40 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cancelled == 0 || res.Injected < 40 || res.Injected+res.Cancelled != len(faults) {
		t.Fatalf("injected %d, cancelled %d of %d faults", res.Injected, res.Cancelled, len(faults))
	}
	for i, o := range res.Outcomes {
		if o != Cancelled && o != want.Outcomes[i] {
			t.Errorf("fault %v: %v after cancellation, %v uncancelled", faults[i], o, want.Outcomes[i])
		}
	}
	mid := false // some segment has both finished and cancelled faults
	for _, sg := range cutSegments(r.goldenLadder(), faults, fault.SortedIndices(faults), nil) {
		var done, left bool
		for _, idx := range sg.faults {
			done = done || res.Outcomes[idx] != Cancelled
			left = left || res.Outcomes[idx] == Cancelled
		}
		mid = mid || done && left
	}
	if !mid {
		t.Error("no segment was cancelled midway")
	}
	if st := r.Snapshots.Stats(); st.Entries != 0 {
		t.Errorf("a cancelled campaign stored a ladder: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the campaign, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
