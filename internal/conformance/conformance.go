// Package conformance is the lockstep differential oracle for the
// simulator core: it runs a program simultaneously on the detailed
// out-of-order core (internal/cpu) and the architectural reference
// interpreter (internal/interp), diffing registers, memory effects, the
// output stream and the exception log at every instruction-retire
// boundary — not just at halt. The first divergence is reported with the
// retiring PC, a disassembly window and both machines' architectural
// states, so a pipeline bug is pinned to the instruction that exposed it.
//
// On top of the engine, internal/conformance/gen emits seeded
// pseudo-random stress kernels per microarchitectural structure (register
// file, store queue, L1D, branch predictor, mixed-width memory), and
// FuzzLockstep mutates raw instruction streams. `merlin conformance`
// exposes the suite on the command line so a core configuration can be
// certified before a campaign trusts it.
package conformance

import (
	"fmt"
	"strings"

	"merlin/internal/cpu"
	"merlin/internal/interp"
	"merlin/internal/isa"
	"merlin/internal/mem"
)

// Kind classifies the first divergence found by a lockstep run.
type Kind string

// Divergence kinds, roughly ordered by how early in a retire they are
// detected.
const (
	KindPhantom   Kind = "phantom-retire" // core retired past the architectural halt
	KindControl   Kind = "control-flow"   // retired PC differs from the reference PC
	KindCrash     Kind = "crash"          // reference crashed on an instruction the core retired
	KindRegister  Kind = "register"       // architectural register mismatch after retire
	KindStore     Kind = "store"          // store address/size/data mismatch
	KindOutput    Kind = "output"         // OUT stream mismatch
	KindException Kind = "exception"      // exception log mismatch
	KindHalt      Kind = "halt"           // halt causes disagree
	KindMemory    Kind = "memory"         // final memory images differ
)

// Divergence describes the first point where the core and the reference
// disagreed.
type Divergence struct {
	Kind   Kind
	Seq    uint64 // µop sequence number of the retiring instruction (0 if end-of-run)
	RIP    int64  // the retiring PC at the divergence (-1 if end-of-run)
	Detail string // what differed, with both values

	Window   string                  // disassembly around RIP
	CoreRegs [isa.NumArchRegs]uint64 // committed architectural registers, core
	RefRegs  [isa.NumArchRegs]uint64 // architectural registers, reference
}

// String renders the full first-divergence report.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "divergence (%s) at rip %d (seq %d): %s\n", d.Kind, d.RIP, d.Seq, d.Detail)
	if d.Window != "" {
		b.WriteString(d.Window)
	}
	b.WriteString("  regs (core | reference; * = differs):\n")
	for i := 0; i < isa.NumArchRegs; i++ {
		marker := " "
		if d.CoreRegs[i] != d.RefRegs[i] {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %sr%-2d %#18x | %#18x\n", marker, i, d.CoreRegs[i], d.RefRegs[i])
	}
	return b.String()
}

// Config parameterises a lockstep run.
type Config struct {
	CPU       cpu.Config
	MaxCycles uint64 // core cycle budget; 0 = 10M

	// SabotageSeq, when non-zero, installs a test-only result mutator in
	// the core (cpu.SetResultMutator) that XORs SabotageMask into every
	// µop result from that sequence number on — an intentionally buggy
	// core the oracle must catch. Used by self-tests and
	// `merlin conformance -selftest`; leave zero for real certification.
	SabotageSeq  uint64
	SabotageMask uint64
}

// Report is the outcome of one lockstep run.
type Report struct {
	Name       string
	Retired    uint64 // macro-instructions retired by the core
	Cycles     uint64
	Halt       cpu.HaltReason
	LastSeq    uint64 // µop seq of the last retired instruction
	Timeout    bool   // core exhausted MaxCycles; inconclusive, not a divergence
	Divergence *Divergence
}

// Conformant reports whether the run completed without divergence or
// timeout.
func (r *Report) Conformant() bool { return r.Divergence == nil && !r.Timeout }

// haltMap translates reference halt causes into core halt causes.
var haltMap = map[interp.HaltReason]cpu.HaltReason{
	interp.HaltOK:         cpu.HaltOK,
	interp.CrashPageFault: cpu.CrashPageFault,
	interp.CrashBadFetch:  cpu.CrashBadFetch,
	interp.CrashDivZero:   cpu.CrashDivZero,
}

// CoreHalt returns the core halt cause the reference's h corresponds to
// (cpu.Running for the causes only the reference has). The campaign's
// hand-off classifies interpreter-finished runs through it.
func CoreHalt(h interp.HaltReason) cpu.HaltReason { return haltMap[h] }

// Run executes prog on both machines in lockstep and returns the report.
func Run(prog *isa.Program, cfg Config) *Report {
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 10_000_000
	}
	core := cpu.New(cfg.CPU, prog)
	ref := interp.NewMachine(prog)
	rep := &Report{Name: prog.Name}

	if cfg.SabotageSeq != 0 {
		mask := cfg.SabotageMask
		if mask == 0 {
			mask = 1 << 17
		}
		core.SetResultMutator(func(seq uint64, op isa.Op, result uint64) uint64 {
			if seq >= cfg.SabotageSeq {
				return result ^ mask
			}
			return result
		})
	}

	// The witness buffers retire events; they are drained and checked
	// after every core cycle so the reference never runs ahead.
	var events []cpu.RetireEvent
	core.SetRetireWitness(func(ev cpu.RetireEvent) { events = append(events, ev) })

	for core.Halted() == cpu.Running && core.Cycle() < maxCycles && rep.Divergence == nil {
		core.Step()
		for i := range events {
			rep.Retired++
			rep.LastSeq = events[i].Seq
			if d := checkRetire(prog, core, ref, &events[i]); d != nil {
				rep.Divergence = d
				break
			}
		}
		events = events[:0]
	}
	rep.Cycles = core.Cycle()
	rep.Halt = core.Halted()
	if rep.Divergence != nil {
		return rep
	}
	if core.Halted() == cpu.Running || core.Halted() == cpu.CycleLimit {
		rep.Timeout = true
		return rep
	}

	// End of the retire stream: the reference's next step must reproduce
	// the core's halt cause (HALT or the crashing instruction, which
	// never retires on either machine).
	if ref.Step() {
		rep.Divergence = endDivergence(prog, core, ref, KindHalt,
			fmt.Sprintf("core halted (%v) but the reference is still running at pc %d", core.Halted(), ref.PC()))
		return rep
	}
	if want := haltMap[ref.Halt()]; core.Halted() != want {
		rep.Divergence = endDivergence(prog, core, ref, KindHalt,
			fmt.Sprintf("halt cause %v, reference says %v", core.Halted(), want))
		return rep
	}
	if d := compareLogs(prog, core, ref); d != nil {
		rep.Divergence = d
		return rep
	}
	if core.Halted() == cpu.HaltOK {
		rep.Divergence = compareMemory(prog, core, ref)
	}
	return rep
}

// checkRetire validates one retired macro-instruction against one
// reference step.
func checkRetire(prog *isa.Program, core *cpu.Core, ref *interp.Machine, ev *cpu.RetireEvent) *Divergence {
	if ref.Done() {
		return newDivergence(prog, ev, ref, KindPhantom,
			fmt.Sprintf("core retired %v past the architectural end of the program (%v)", ev.Inst, ref.Halt()))
	}
	if ev.RIP != ref.PC() {
		return newDivergence(prog, ev, ref, KindControl,
			fmt.Sprintf("core retired rip %d but the reference is at pc %d", ev.RIP, ref.PC()))
	}
	if !ref.Step() {
		return newDivergence(prog, ev, ref, KindCrash,
			fmt.Sprintf("core retired %v but the reference %v here", ev.Inst, ref.Halt()))
	}
	if ev.Regs != ref.Regs() {
		refRegs := ref.Regs()
		for i := range ev.Regs {
			if ev.Regs[i] != refRegs[i] {
				return newDivergence(prog, ev, ref, KindRegister,
					fmt.Sprintf("r%d = %#x after %v, reference says %#x", i, ev.Regs[i], ev.Inst, refRegs[i]))
			}
		}
	}
	if addr, size, data, ok := ref.LastStore(); ok != ev.HasStore {
		return newDivergence(prog, ev, ref, KindStore,
			fmt.Sprintf("store effect mismatch for %v: core stored=%v, reference stored=%v", ev.Inst, ev.HasStore, ok))
	} else if ok && (addr != ev.StoreAddr || size != ev.StoreSize || data != ev.StoreData) {
		return newDivergence(prog, ev, ref, KindStore,
			fmt.Sprintf("%v stored %#x (%d bytes) at %#x, reference stored %#x (%d bytes) at %#x",
				ev.Inst, ev.StoreData, ev.StoreSize, ev.StoreAddr, data, size, addr))
	}
	if ev.OutputLen != len(ref.Output()) {
		return newDivergence(prog, ev, ref, KindOutput,
			fmt.Sprintf("output stream has %d entries after %v, reference has %d", ev.OutputLen, ev.Inst, len(ref.Output())))
	}
	if ev.HasOut {
		if want := ref.Output()[len(ref.Output())-1]; ev.Out != want {
			return newDivergence(prog, ev, ref, KindOutput,
				fmt.Sprintf("out emitted %#x, reference emitted %#x", ev.Out, want))
		}
	}
	coreExc, refExc := core.ExcLog(), ref.ExcLog()
	if ev.ExcLogLen != len(refExc) {
		return newDivergence(prog, ev, ref, KindException,
			fmt.Sprintf("exception log has %d entries after %v, reference has %d", ev.ExcLogLen, ev.Inst, len(refExc)))
	}
	for i := ev.ExcLogLen - 1; i >= 0 && i >= ev.ExcLogLen-2; i-- { // at most 2 new entries per retire
		if coreExc[i] != refExc[i] {
			return newDivergence(prog, ev, ref, KindException,
				fmt.Sprintf("exception log[%d] = %#x, reference logged %#x", i, coreExc[i], refExc[i]))
		}
	}
	return nil
}

// compareLogs does the full end-of-run output and exception comparison, a
// backstop behind the incremental per-retire checks.
func compareLogs(prog *isa.Program, core *cpu.Core, ref *interp.Machine) *Divergence {
	co, ro := core.Output(), ref.Output()
	if len(co) != len(ro) {
		return endDivergence(prog, core, ref, KindOutput,
			fmt.Sprintf("final output has %d entries, reference has %d", len(co), len(ro)))
	}
	for i := range co {
		if co[i] != ro[i] {
			return endDivergence(prog, core, ref, KindOutput,
				fmt.Sprintf("final output[%d] = %#x, reference says %#x", i, co[i], ro[i]))
		}
	}
	ce, re := core.ExcLog(), ref.ExcLog()
	if len(ce) != len(re) {
		return endDivergence(prog, core, ref, KindException,
			fmt.Sprintf("final exception log has %d entries, reference has %d", len(ce), len(re)))
	}
	for i := range ce {
		if ce[i] != re[i] {
			return endDivergence(prog, core, ref, KindException,
				fmt.Sprintf("final exception log[%d] = %#x, reference says %#x", i, ce[i], re[i]))
		}
	}
	return nil
}

// memDiffs is the most memory mismatches one report lists.
const memDiffs = 8

// compareMemory diffs the final architectural memory images page by page.
// Draining the core's committed stores and flushing its caches first makes
// its main memory the complete architectural image; untouched pages read
// as zeros on both machines.
func compareMemory(prog *isa.Program, core *cpu.Core, ref *interp.Machine) *Divergence {
	core.DrainPendingStores()
	core.FlushDataCaches()
	var diffs []string
	for base := uint64(isa.DataBase); base < isa.MemTop; base += mem.PageSize {
		cp, rp := core.PageData(base), ref.PageData(base)
		if cp == nil && rp == nil {
			continue
		}
		for i := 0; i < mem.PageSize && len(diffs) < memDiffs; i++ {
			var cb, rb byte
			if cp != nil {
				cb = cp[i]
			}
			if rp != nil {
				rb = rp[i]
			}
			if cb != rb {
				diffs = append(diffs, fmt.Sprintf("[%#x] = %#02x, reference says %#02x", base+uint64(i), cb, rb))
			}
		}
		if len(diffs) >= memDiffs {
			break
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return endDivergence(prog, core, ref, KindMemory,
		fmt.Sprintf("final memory differs at %d+ bytes: %s", len(diffs), strings.Join(diffs, "; ")))
}

func newDivergence(prog *isa.Program, ev *cpu.RetireEvent, ref *interp.Machine, kind Kind, detail string) *Divergence {
	return &Divergence{
		Kind: kind, Seq: ev.Seq, RIP: ev.RIP, Detail: detail,
		Window: window(prog, ev.RIP), CoreRegs: ev.Regs, RefRegs: ref.Regs(),
	}
}

// endDivergence builds a divergence for end-of-run checks, where there is
// no retiring instruction; the reference PC anchors the window.
func endDivergence(prog *isa.Program, core *cpu.Core, ref *interp.Machine, kind Kind, detail string) *Divergence {
	return &Divergence{
		Kind: kind, Seq: 0, RIP: ref.PC(), Detail: detail,
		Window: window(prog, ref.PC()), CoreRegs: core.ArchRegs(), RefRegs: ref.Regs(),
	}
}

// window disassembles the instructions around rip, marking it with ">".
func window(prog *isa.Program, rip int64) string {
	lo, hi := rip-3, rip+4
	if lo < 0 {
		lo = 0
	}
	if hi > int64(len(prog.Text)) {
		hi = int64(len(prog.Text))
	}
	var b strings.Builder
	for pc := lo; pc < hi; pc++ {
		marker := " "
		if pc == rip {
			marker = ">"
		}
		fmt.Fprintf(&b, "  %s %4d: %s\n", marker, pc, prog.Text[pc])
	}
	return b.String()
}
