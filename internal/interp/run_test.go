package interp_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"merlin/internal/asm"
	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/interp"
	"merlin/internal/isa"
	"merlin/internal/workloads"
)

// start builds a machine at a fixed starting point; new is called once per
// machine, so every machine compared starts from identical state. want is
// the halt the run ends with: HaltOK for the workloads and generated
// kernels, the one a hand-written kernel was built for.
type start struct {
	name string
	new  func() *interp.Machine
	want interp.HaltReason
}

// diffMachines compares everything a run leaves behind: registers, PC,
// steps, output, exception log, halt, and every page it touched.
func diffMachines(a, b *interp.Machine) string {
	switch {
	case a.Regs() != b.Regs():
		return fmt.Sprintf("regs %v, want %v", a.Regs(), b.Regs())
	case a.PC() != b.PC():
		return fmt.Sprintf("pc %d, want %d", a.PC(), b.PC())
	case a.Steps() != b.Steps():
		return fmt.Sprintf("steps %d, want %d", a.Steps(), b.Steps())
	case !slices.Equal(a.Output(), b.Output()):
		return fmt.Sprintf("output %d values, want %d", len(a.Output()), len(b.Output()))
	case !slices.Equal(a.ExcLog(), b.ExcLog()):
		return fmt.Sprintf("exception log %v, want %v", a.ExcLog(), b.ExcLog())
	case a.Done() != b.Done() || a.Result().Halt != b.Result().Halt:
		return fmt.Sprintf("done %v halt %v, want %v %v", a.Done(), a.Result().Halt, b.Done(), b.Result().Halt)
	}
	for addr := uint64(0); addr < isa.MemTop; addr += 1 << 12 {
		pa, pb := a.PageData(addr), b.PageData(addr)
		if (pa == nil) != (pb == nil) || !bytes.Equal(pa, pb) {
			return fmt.Sprintf("page %#x differs (touched %v, want %v)", addr, pa != nil, pb != nil)
		}
	}
	return ""
}

// checkRunMatchesStep runs s to its end to learn its length T, then for
// each budget n around the interesting points (nothing, one instruction,
// mid-run, one short of the end, the end, past it) compares Run(n) with n
// calls to Step, and a run split in two Run calls with the whole one.
func checkRunMatchesStep(t *testing.T, s start) {
	t.Helper()
	const limit = 1_000_000
	probe := s.new()
	probe.Run(limit)
	if got := probe.Result().Halt; got != s.want {
		t.Errorf("%s: ends with %v, want %v", s.name, got, s.want)
	}
	T := probe.Steps()
	for _, n := range []uint64{0, 1, T / 2, T - min(T, 1), T, T + 1, T + 2} {
		run, step := s.new(), s.new()
		run.Run(n)
		for i := uint64(0); i < n && step.Step(); i++ {
		}
		if d := diffMachines(run, step); d != "" {
			t.Errorf("%s: Run(%d) against %d Steps: %s", s.name, n, n, d)
		}
	}
	split := s.new()
	split.Run(T / 3)
	split.Run(limit)
	if d := diffMachines(split, probe); d != "" {
		t.Errorf("%s: Run(%d) then Run(%d) against one Run: %s", s.name, T/3, limit, d)
	}
}

// midRun starts from a core's committed state halfway through prog's
// fault-free run, as a campaign hand-off does.
func midRun(name string, prog *isa.Program) start {
	c := cpu.New(cpu.DefaultConfig(), prog)
	golden := c.Clone().Run(100_000_000)
	for c.Cycle() < golden.Cycles/2 {
		c.Step()
	}
	pc, ok := c.Quiescent(0)
	for !ok {
		c.Step()
		pc, ok = c.Quiescent(0)
	}
	regs := c.CommittedRegs()
	return start{name: name + "/mid-run", new: func() *interp.Machine {
		var m interp.Machine
		m.Reset(prog, pc, regs, c)
		return &m
	}}
}

// TestRunMatchesStep holds the interpreter's loop to its single-step
// definition: on every workload from reset and from a mid-run core, on
// every generated kernel class at a few seeds, and on kernels that crash,
// trip the watch, access memory misaligned and use STADD, Run(n) leaves the
// machine exactly as n calls to Step do, at every step budget around the
// run's end.
func TestRunMatchesStep(t *testing.T) {
	var starts []start
	fresh := func(name string, prog *isa.Program) start {
		return start{name: name, new: func() *interp.Machine { return interp.NewMachine(prog) }}
	}
	names := workloads.Names("")
	if testing.Short() {
		names = []string{"sha", "djpeg"}
	}
	for _, name := range names {
		prog := workloads.MustGet(name).Program()
		starts = append(starts, fresh(name, prog), midRun(name, prog))
	}
	for _, class := range gen.Classes() {
		for seed := uint64(1); seed <= 3; seed++ {
			starts = append(starts, fresh(fmt.Sprintf("%s/%d", class, seed), gen.Kernel(class, seed)))
		}
	}
	// The watch kernels watch the byte at buf+5: a load of it before any
	// store trips the watch, a store covering it first ends the watch.
	for _, k := range []struct {
		name, src string
		watch     bool
		want      interp.HaltReason
	}{
		{"page fault", "li r1, 8\nli r2, 0\nld r3, [r2]\nhalt", false, interp.CrashPageFault},
		{"bad fetch", "li r1, 99999\njalr r2, r1, 0\nhalt", false, interp.CrashBadFetch},
		{"div zero", "li r1, 5\nli r2, 0\nout r1\ndiv r3, r1, r2\nhalt", false, interp.CrashDivZero},
		{"misaligned", ".data\nbuf: .space 32\n.text\nli r1, buf\nli r2, 0xbeef\nsw [r1+1], r2\nlh r3, [r1+3]\nld r4, [r1+2]\nout r3\nout r4\nhalt", false, interp.HaltOK},
		{"stadd", ".data\nbuf: .space 32\n.text\nli r1, buf\nli r2, 7\nstadd [r1+0], r2\nstadd [r1+3], r2\nld r3, [r1+0]\nout r3\nhalt", false, interp.HaltOK},
		{"spin", "li r1, 0\nspin: addi r1, r1, 1\nj spin", false, interp.StepLimit},
		{"watch trip", ".data\nbuf: .space 32\n.text\nli r1, buf\nli r2, 3\nout r2\nlb r3, [r1+5]\nout r3\nhalt", true, interp.WatchTrip},
		{"watch ended", ".data\nbuf: .space 32\n.text\nli r1, buf\nli r2, 3\nsd [r1+0], r2\nlb r3, [r1+5]\nout r3\nhalt", true, interp.HaltOK},
	} {
		prog, watch := asm.MustAssemble(k.name, k.src), k.watch
		starts = append(starts, start{name: k.name, want: k.want, new: func() *interp.Machine {
			m := interp.NewMachine(prog)
			if watch {
				m.Watch(isa.DataBase + 5)
			}
			return m
		}})
	}
	for _, s := range starts {
		checkRunMatchesStep(t, s)
	}
}
