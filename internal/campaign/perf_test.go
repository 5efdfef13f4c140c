package campaign

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/interp"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// TestPooledReplayMatchesRunFault: Run's pooled reset-snapshot replay
// must classify every fault exactly as the untouched per-fault RunFault
// (fresh core, no pool, no early exit) does — the seed behaviour.
func TestPooledReplayMatchesRunFault(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := strategyFaultList(c, lifetime.StructRF, g.Result.Cycles, 30, 5, nil)
	res := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))
	for i, f := range faults {
		if want := r.RunFault(f, &g.Result); res.Outcomes[i] != want {
			t.Errorf("fault %v: pooled Run %v, RunFault %v", f, res.Outcomes[i], want)
		}
	}
	if res.Clones != int64(len(faults)) {
		t.Errorf("Clones = %d, want one per fault (%d)", res.Clones, len(faults))
	}
	if res.SimCycles == 0 {
		t.Error("SimCycles not recorded")
	}
	if res.CyclesPerSec() <= 0 {
		t.Error("CyclesPerSec not derivable")
	}
}

// TestRunFaultFromEarlyExitMatches: RunFaultFrom's new masked-equivalence
// ladder exit must classify exactly as a full from-reset replay.
func TestRunFaultFromEarlyExitMatches(t *testing.T) {
	r := NewRunner(target(t, "qsort"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	set := r.BuildCheckpoints(6, g.Result.Cycles)
	c := r.NewCore()
	faults := strategyFaultList(c, lifetime.StructL1D, g.Result.Cycles, 30, 9, set.cycles[1:])
	for _, f := range faults {
		if got, want := r.RunFaultFrom(set, f, &g.Result), r.RunFault(f, &g.Result); got != want {
			t.Errorf("fault %v: checkpointed-with-exit %v, replay %v", f, got, want)
		}
	}
}

// TestDeadOnArrivalStampsWall: a campaign cancelled before it starts must
// still stamp Wall, so partial results always carry a wall-clock
// (regression: the dead-on-arrival path returned Wall == 0).
func TestDeadOnArrivalStampsWall(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	faults := sampling.Generate(lifetime.StructRF, 256, 64, g.Result.Cycles, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.Run(ctx, faults, &g.Result, Plan{Strategy: Forked})
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if res.Wall <= 0 {
		t.Errorf("dead-on-arrival cancellation left Wall = %v, want > 0", res.Wall)
	}
	if res.Cancelled != len(faults) {
		t.Errorf("Cancelled = %d, want %d", res.Cancelled, len(faults))
	}
}

// TestSnapshotSourceSharing: with a SnapshotCache attached, repeat
// campaigns reuse one ladder (SnapshotHit set, one build), outcomes stay
// bit-identical, and a ladder of another snapshot count lives under its
// own key.
func TestSnapshotSourceSharing(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := strategyFaultList(c, lifetime.StructRF, g.Result.Cycles, 25, 11, nil)
	want := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{}))

	src := NewSnapshotCache(0)
	r.Snapshots = src
	for round := 0; round < 2; round++ {
		_, ckHit := r.ladder(4, g.Result.Cycles)
		fk := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
		if hit := round > 0; ckHit != hit || fk.SnapshotHit != hit {
			t.Errorf("round %d: SnapshotHit k=4 %v forked=%v, want %v", round, ckHit, fk.SnapshotHit, hit)
		}
		for i := range faults {
			if fk.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("round %d fault %d: outcomes diverge with shared snapshots", round, i)
			}
		}
	}
	if builds := src.Stats().Misses; builds != 2 { // one ladder per snapshot count: k=4 and ForkSyncPoints
		t.Errorf("ladder built %d times, want 2 (one per key)", builds)
	}
	if want.SnapshotHit {
		t.Error("replay strategy must never report a snapshot hit")
	}
}

// TestConcurrentCampaignsSharedSnapshots: concurrent campaigns over one
// Runner configuration and one shared source must agree with the serial
// outcomes; run under -race this exercises concurrent cloning of shared
// frozen ladders end-to-end.
func TestConcurrentCampaignsSharedSnapshots(t *testing.T) {
	src := NewSnapshotCache(0)
	base := NewRunner(target(t, "sha"))
	g, err := base.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := base.NewCore()
	faults := strategyFaultList(c, lifetime.StructRF, g.Result.Cycles, 20, 13, nil)
	want := mustRun(t)(base.Run(context.Background(), faults, &g.Result, Plan{}))

	var wg sync.WaitGroup
	outcomes := make([]*Result, 4)
	for w := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRunner(target(t, "sha"))
			r.Snapshots = src
			r.Workers = 2
			res, err := r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked})
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = res
		}(w)
	}
	wg.Wait()
	for i, res := range outcomes {
		if res == nil {
			continue
		}
		for j := range faults {
			if res.Outcomes[j] != want.Outcomes[j] {
				t.Fatalf("campaign %d fault %d: %v, want %v", i, j, res.Outcomes[j], want.Outcomes[j])
			}
		}
	}
}

// midRunDjpeg returns a frozen djpeg core at the middle of its fault-free
// run and a frozen snapshot of it 2,000 cycles later — one rung of the
// forked L1D campaign's ladder, at the benchmark workload's own scale.
func midRunDjpeg(b *testing.B) (mid, rung *cpu.Core) {
	b.Helper()
	w, err := workloads.Get("djpeg")
	if err != nil {
		b.Fatal(err)
	}
	c := w.NewCore(cpu.DefaultConfig())
	golden := w.NewCore(cpu.DefaultConfig()).Run(DefaultGoldenBudget)
	for c.Cycle() < golden.Cycles/2 {
		c.Step()
	}
	mid = c.Clone()
	for i := 0; i < injectStepCycles; i++ {
		c.Step()
	}
	return mid, c.Clone()
}

const injectStepCycles = 2000

// BenchmarkInjectStep is the inner loop of the lib_forked_l1d benchmark
// workload without the campaign around it: pooled clone, 2,000 cycles of
// simulation, the masked-equivalence check at the rung, release.
func BenchmarkInjectStep(b *testing.B) {
	mid, rung := midRunDjpeg(b)
	pool := cpu.NewClonePool(0)
	pool.Release(pool.Clone(mid))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := pool.Clone(mid)
		for s := 0; s < injectStepCycles; s++ {
			c.Step()
		}
		if !cpu.MaskedEquivalent(c, rung) {
			b.Fatal("fault-free continuation is not masked-equivalent to its rung")
		}
		pool.Release(c)
	}
	b.ReportMetric(float64(b.N)*injectStepCycles/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkInterpRun is the other half of a handed-off run: restart one
// reusable interpreter from a fault-free core halfway through its run
// (committed registers, memory image composed page by page on first touch)
// and finish the program. Steady state allocates nothing.
func BenchmarkInterpRun(b *testing.B) {
	for _, name := range []string{"djpeg", "sha", "gcc"} {
		b.Run(name, func(b *testing.B) {
			prog := workloads.MustGet(name).Program()
			c := cpu.New(cpu.DefaultConfig(), prog)
			golden := c.Clone().Run(DefaultGoldenBudget)
			for c.Cycle() < golden.Cycles/2 {
				c.Step()
			}
			pc, ok := c.Quiescent(0)
			for !ok {
				c.Step()
				pc, ok = c.Quiescent(0)
			}
			var m interp.Machine
			run := func() uint64 {
				m.Reset(prog, pc, c.CommittedRegs(), c)
				m.Run(golden.Stats.CommittedInsts)
				if m.Result().Halt != interp.HaltOK {
					b.Fatalf("interpreter ended with %v", m.Result().Halt)
				}
				return m.Steps()
			}
			insts := run() // the first run grows the buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
		})
	}
}

// BenchmarkMaskedEquivalent times the early-exit check on its worst case,
// two equal machines (everything is compared).
func BenchmarkMaskedEquivalent(b *testing.B) {
	_, rung := midRunDjpeg(b)
	c := rung.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cpu.MaskedEquivalent(c, rung) {
			b.Fatal("a clone is not masked-equivalent to its source")
		}
	}
}

// BenchmarkPreprocess is what phase 1 costs per simulated cycle: the golden
// run of four workloads spanning 6K to 266K cycles, untraced and with each
// structure traced through to its finished Analysis. The core is built
// outside the timed region; B/cycle is everything the timed region
// allocates, the retained event log included.
func BenchmarkPreprocess(b *testing.B) {
	modes := []struct {
		name  string
		track []lifetime.StructureID
	}{
		{"untraced", nil},
		{"RF", []lifetime.StructureID{lifetime.StructRF}},
		{"SQ", []lifetime.StructureID{lifetime.StructSQ}},
		{"L1D", []lifetime.StructureID{lifetime.StructL1D}},
	}
	for _, name := range []string{"sha", "djpeg", "gcc", "omnetpp"} {
		w := workloads.MustGet(name)
		for _, mode := range modes {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				var cycles, bytes uint64
				var before, after runtime.MemStats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c := w.NewCore(cpu.DefaultConfig())
					var tr *lifetime.Tracer
					if mode.track != nil {
						tr = lifetime.NewTracer(mode.track...)
						c.AttachTracer(tr)
					}
					runtime.ReadMemStats(&before)
					b.StartTimer()
					res := c.Run(DefaultGoldenBudget)
					if tr != nil {
						tr.Finish(false)
						if tr.Analysis(mode.track[0]) == nil {
							b.Fatal("no analysis")
						}
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					cycles += res.Cycles
					bytes += after.TotalAlloc - before.TotalAlloc
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
				b.ReportMetric(float64(bytes)/float64(cycles), "B/cycle")
			})
		}
	}
}
