package interp_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
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

// TestRunBoundary pins where Run stops, which the hand-off's convergence
// exit predicts: HALT is not counted, and it executes only while fewer
// than maxSteps instructions have run, so a run with exactly maxSteps
// instructions left before its HALT ends StepLimit.
func TestRunBoundary(t *testing.T) {
	prog := asm.MustAssemble("boundary", "\tli r1, 7\n\tout r1\n\thalt\n")
	for _, tc := range []struct {
		maxSteps uint64
		halt     interp.HaltReason
		steps    uint64
	}{
		{1, interp.StepLimit, 1},
		{2, interp.StepLimit, 2},
		{3, interp.HaltOK, 2},
		{100, interp.HaltOK, 2},
	} {
		m := interp.NewMachine(prog)
		m.Run(tc.maxSteps)
		if res := m.Result(); res.Halt != tc.halt || res.Steps != tc.steps || m.Done() != (tc.halt == interp.HaltOK) {
			t.Errorf("Run(%d): %v after %d instructions (done %v), want %v after %d",
				tc.maxSteps, res.Halt, res.Steps, m.Done(), tc.halt, tc.steps)
		}
	}
}

// TestAccessCoversRun holds Access to what Step does, on every opcode with
// random operand fields and register values: a register outside the read
// mask changes nothing the instruction does, a register in the write mask
// comes out the same whatever it held before, and a register in neither
// is left alone. The hand-off's convergence exit marks a register dead at
// a golden checkpoint from these masks.
func TestAccessCoversRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	reg := func() int8 { return int8(rng.IntN(isa.NumArchRegs+1)) - 1 } // NoReg or a register
	val := func() uint64 {
		if rng.IntN(2) == 0 {
			return isa.DataBase + 8*rng.Uint64N(64)
		}
		return rng.Uint64()
	}
	for op := isa.NOP; op <= isa.HALT; op++ {
		for trial := 0; trial < 200; trial++ {
			in := isa.Inst{Op: op, Rd: reg(), Rs1: reg(), Rs2: reg(), Imm: int64(rng.IntN(64)) - 8}
			prog := &isa.Program{Name: "access", Text: []isa.Inst{in, {Op: isa.HALT, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg}}}
			reads, writes := interp.Access(&in)
			var a, b [isa.NumArchRegs]uint64
			for r := range a {
				a[r], b[r] = val(), val()
				if reads&(1<<r) != 0 {
					b[r] = a[r]
				}
			}
			var ma, mb interp.Machine
			ma.Reset(prog, 0, a, nil)
			mb.Reset(prog, 0, b, nil)
			ma.Step()
			mb.Step()
			ra, rb := ma.Result(), mb.Result()
			aAddr, aSize, aData, aOK := ma.LastStore()
			bAddr, bSize, bData, bOK := mb.LastStore()
			if ma.PC() != mb.PC() || ra.Halt != rb.Halt || ra.Steps != rb.Steps ||
				!slices.Equal(ra.Output, rb.Output) || !slices.Equal(ra.ExcLog, rb.ExcLog) ||
				aAddr != bAddr || aSize != bSize || aData != bData || aOK != bOK {
				t.Fatalf("%v: registers outside the read mask %016b changed what it did", in, reads)
			}
			if ra.Halt != interp.StepLimit && ra.Halt != interp.HaltOK {
				writes = 0 // a crashing instruction writes nothing
			}
			for r, v := range ma.Regs() {
				switch {
				case (reads|writes)&(1<<r) != 0 && v != mb.Regs()[r]:
					t.Fatalf("%v: r%d came out %#x and %#x (reads %016b, writes %016b)", in, r, v, mb.Regs()[r], reads, writes)
				case (reads|writes)&(1<<r) == 0 && v != a[r]:
					t.Fatalf("%v: r%d changed outside the masks (reads %016b, writes %016b)", in, r, reads, writes)
				}
			}
		}
	}
}
