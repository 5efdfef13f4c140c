package cpu_test

import (
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/isa"
	"merlin/internal/mem"
	"merlin/internal/workloads"
)

// TestStepSteadyStateAllocs: stepping a core allocates nothing of its own.
// On a New-built, never-cloned sha core (so no cache set or memory page is
// left to privatise) past the middle of its run, the allocations of 2,000
// Steps must be exactly those the machine's growing *results* explain: a
// data page touched for the first time, or the committed output or
// exception log outgrowing its array. The count is deterministic, so the
// comparison is exact; on sha the window holds none of the three.
func TestStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const window = 2000
	w := workloads.MustGet("sha")
	total := w.NewCore(cpu.DefaultConfig()).Run(10_000_000).Cycles
	c := w.NewCore(cpu.DefaultConfig())
	// AllocsPerRun calls its function once to warm up before the measured
	// call: start one window early so the measured one begins at 50%.
	for c.Cycle()+window < total/2 {
		c.Step()
	}
	type growth struct{ pages, outCap, excCap int }
	observe := func() growth {
		g := growth{outCap: cap(c.Output()), excCap: cap(c.ExcLog())}
		for addr := uint64(isa.DataBase); addr < isa.MemTop; addr += mem.PageSize {
			if c.PageData(addr) != nil {
				g.pages++
			}
		}
		return g
	}
	var before, after growth
	allocs := testing.AllocsPerRun(1, func() {
		before = observe()
		for i := 0; i < window; i++ {
			c.Step()
		}
		after = observe()
	})
	if c.Halted() != cpu.Running || c.Cycle() < total/2 {
		t.Fatalf("measured window ended at cycle %d of %d, halted %v: not mid-run", c.Cycle(), total, c.Halted())
	}
	want := after.pages - before.pages
	if after.outCap != before.outCap {
		want++
	}
	if after.excCap != before.excCap {
		want++
	}
	if int(allocs) != want {
		t.Errorf("%d Steps allocated %v times, the machine's results explain %d (%+v -> %+v)", window, allocs, want, before, after)
	}
}
