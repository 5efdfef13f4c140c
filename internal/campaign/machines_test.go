package campaign

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// TestSharedLadderMatchesReplay: in a process with no golden ladder, the
// k-rung ladder published for a Runner at two to four workers is
// state-equal, rung by rung, to BuildCheckpoints(k, cycles), whether a
// golden run froze it, traced or not, a Forked walk froze it without a
// SnapshotCache, or a walk froze the cache's ForkSyncPoints-rung ladder
// and the k-rung one was taken out of it. Ladders of different k share the
// rungs at the cycles their schedules share.
func TestSharedLadderMatchesReplay(t *testing.T) {
	ctx := context.Background()
	for _, name := range shortWorkloads {
		ref := NewRunner(target(t, name))
		ref.Workers = 1
		g, err := ref.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		cycles := g.Result.Cycles
		faults := strategyFaultList(ref.NewCore(), lifetime.StructRF, cycles, 30, 7, nil)
		for workers := 2; workers <= 4; workers++ {
			k := 2 * workers
			replay := ref.BuildCheckpoints(k, cycles)
			for _, src := range []string{"golden", "traced golden", "walk", "cache miss"} {
				id := fmt.Sprintf("%s x%d %s", name, workers, src)
				resetMachines()
				r := NewRunner(ref.Target)
				r.Workers = workers
				switch src {
				case "golden":
					_, err = r.RunGolden()
				case "traced golden":
					_, err = r.RunGolden(lifetime.StructRF)
				case "cache miss":
					r.Snapshots = NewSnapshotCache(0)
					fallthrough
				case "walk":
					_, err = r.Run(ctx, faults, &g.Result, Plan{Strategy: Forked})
				}
				if err != nil {
					t.Fatal(err)
				}
				ladder := machineFor(r.Target).ladder(k)
				if ladder == nil || !slices.Equal(ladder.cycles, replay.cycles) {
					t.Fatalf("%s: published %v, want rungs at %v", id, ladder, replay.cycles)
				}
				for i, cyc := range ladder.cycles {
					if ladder.cores[i].StateHash() != replay.cores[i].StateHash() || !cpu.StateEqual(ladder.cores[i], replay.cores[i]) {
						t.Errorf("%s: published rung at cycle %d differs from the replayed one", id, cyc)
					}
				}
			}
		}

		// A four-worker golden run's ladder, then a two-worker walk's.
		resetMachines()
		wide, narrow := NewRunner(ref.Target), NewRunner(ref.Target)
		wide.Workers, narrow.Workers = 4, 2
		if _, err := wide.RunGolden(); err != nil {
			t.Fatal(err)
		}
		mustRun(t)(narrow.Run(ctx, faults, &g.Result, Plan{Strategy: Forked}))
		e := machineFor(ref.Target)
		l4, l8 := e.ladder(4), e.ladder(8)
		for i, cyc := range l4.cycles {
			if j := slices.Index(l8.cycles, cyc); j < 0 || l8.cores[j] != l4.cores[i] {
				t.Errorf("%s: the 4-rung ladder's rung at cycle %d is not the 8-rung ladder's", name, cyc)
			}
		}
	}
}

// TestSharedMachinesRace: Runners of one program, at one to four workers,
// race their golden runs — untraced, traced, or none, the Golden rebuilt
// from an artifact (CachedGolden) — and their campaigns under both
// strategies over one machine entry, starting from an empty table. Every
// outcome equals RunFault's. CI runs it under the race detector.
func TestSharedMachinesRace(t *testing.T) {
	ref := NewRunner(target(t, "sha"))
	ref.Workers = 1
	g, err := ref.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	n := 60
	if testing.Short() || raceEnabled {
		n = 20
	}
	faults := strategyFaultList(ref.NewCore(), lifetime.StructRF, g.Result.Cycles, n, 19, CheckpointSchedule(8, g.Result.Cycles))
	want := make([]Outcome, len(faults))
	for i, f := range faults {
		want[i] = ref.RunFault(f, &g.Result)
	}
	resetMachines()
	var wg sync.WaitGroup
	for workers := 1; workers <= 4; workers++ {
		for _, mode := range []string{"untraced", "traced", "cached"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := fmt.Sprintf("x%d %s", workers, mode)
				r := NewRunner(ref.Target)
				r.Workers = workers
				var err error
				switch mode {
				case "untraced":
					_, err = r.RunGolden()
				case "traced":
					_, err = r.RunGolden(lifetime.StructRF)
				case "cached":
					r.CachedGolden(g.Result, lifetime.StructRF)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range allStrategies {
					res, err := r.Run(context.Background(), faults, &g.Result, Plan{Strategy: s})
					if err != nil {
						t.Error(err)
						return
					}
					for i, f := range faults {
						if res.Outcomes[i] != want[i] {
							t.Errorf("%s %v: fault %v: Run %v, RunFault %v", id, s, f, res.Outcomes[i], want[i])
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestSharedMachinesBounded: the machine table keeps the machinesKept most
// recently used (program, config) entries, and a new key evicts the least
// recently used one with its pool; an entry's pool never retains more
// shells than the widest Run on it releases, two per worker; and after
// campaigns over every workload (shortWorkloads under -short and -race) on
// both timing-pin configurations at two workers, what the table holds on
// the heap stays under machinesKept x 2 MB (about 10 MB for the 8 entries
// kept of 40 keys; an unbounded table held about 1.3 MB a key).
func TestSharedMachinesBounded(t *testing.T) {
	resetMachines()
	sha := workloads.MustGet("sha").Program()
	keys := make([]Target, machinesKept+1)
	for i := range keys {
		keys[i] = Target{Cfg: cpu.DefaultConfig(), Prog: &isa.Program{Name: sha.Name, Text: sha.Text, Data: sha.Data, Entry: sha.Entry}}
	}
	entries := make([]*machine, machinesKept)
	for i := range entries {
		entries[i] = machineFor(keys[i])
	}
	pool := entries[1].poolFor(1)
	pool.Release(pool.Clone(entries[1].ladders[0].cores[0]))
	machineFor(keys[0]) // now keys[1] is the least recently used
	machineFor(keys[machinesKept])
	if len(machines.entries) != machinesKept || slices.Contains(machines.entries, entries[1]) || !slices.Contains(machines.entries, entries[0]) {
		t.Errorf("a %dth key left %d entries, the least recently used one kept %v, the most recently used one kept %v",
			machinesKept+1, len(machines.entries), slices.Contains(machines.entries, entries[1]), slices.Contains(machines.entries, entries[0]))
	}
	if e := machineFor(keys[1]); e == entries[1] || e.pool.Free() != 0 {
		t.Errorf("an evicted key came back with its old entry or its pooled shells")
	}

	resetMachines()
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	faults := strategyFaultList(r.NewCore(), lifetime.StructRF, g.Result.Cycles, 60, 5, nil)
	widest := 0
	for _, workers := range []int{1, 3, 2, 4, 1} {
		r.Workers = workers
		widest = max(widest, workers)
		for _, s := range allStrategies {
			mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: s}))
			if free := machineFor(r.Target).pool.Free(); free > 2*widest || free == 0 {
				t.Errorf("%v at %d workers (widest %d): the pool retains %d shells, want 1 to %d", s, workers, widest, free, 2*widest)
			}
		}
	}

	names := workloads.Names("")
	if testing.Short() || raceEnabled {
		names = shortWorkloads
	}
	for _, name := range names {
		workloads.MustGet(name).Program() // assembled once per process: not the table's
	}
	resetMachines()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, name := range names {
		for _, cfg := range timingConfigs {
			r := NewRunner(Target{Cfg: cfg.cfg, Prog: workloads.MustGet(name).Program()})
			r.Workers = 2
			g, err := r.RunGolden()
			if err != nil {
				t.Fatal(err)
			}
			c := r.NewCore()
			faults := sampling.Generate(lifetime.StructRF, c.StructureEntries(lifetime.StructRF), c.StructureEntryBits(lifetime.StructRF), g.Result.Cycles, 20, 1)
			mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const bound = machinesKept * 2 << 20
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d entries of %d keys hold %.1f MB of heap", len(machines.entries), 2*len(names), float64(held)/(1<<20))
	if held > bound {
		t.Errorf("after campaigns over %d keys the table holds %d heap bytes, bound %d", 2*len(names), held, bound)
	}
}
