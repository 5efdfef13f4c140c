package conformance

import (
	"fmt"
	"strings"
	"testing"

	"merlin/internal/asm"
	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/interp"
	"merlin/internal/isa"
	"merlin/internal/workloads"
)

// smallConfig shrinks every structure so the same kernels also stress
// structural-hazard stalls, rename starvation and SQ-full backpressure.
func smallConfig() cpu.Config {
	cfg := cpu.DefaultConfig().WithRF(32).WithSQ(8).WithL1D(16 << 10)
	cfg.IQEntries = 8
	cfg.ROBEntries = 24
	return cfg
}

// TestGeneratedKernelsConform is the heart of the suite: every kernel
// class, many seeds, two core geometries, zero tolerated divergences.
func TestGeneratedKernelsConform(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for _, class := range gen.Classes() {
		t.Run(class, func(t *testing.T) {
			for seed := uint64(0); seed < uint64(seeds); seed++ {
				prog := gen.Kernel(class, seed)
				for name, cfg := range map[string]cpu.Config{"default": cpu.DefaultConfig(), "small": smallConfig()} {
					rep := Run(prog, Config{CPU: cfg})
					if rep.Timeout {
						t.Fatalf("%s seed %d (%s config): timeout after %d cycles", class, seed, name, rep.Cycles)
					}
					if rep.Divergence != nil {
						t.Fatalf("%s seed %d (%s config):\n%s", class, seed, name, rep.Divergence)
					}
					if rep.Retired == 0 {
						t.Fatalf("%s seed %d (%s config): kernel retired no instructions", class, seed, name)
					}
				}
			}
		})
	}
}

// TestKernelsDeterministic pins the generator contract the fuzz corpus
// and CLI rely on: same (class, seed) → byte-identical program, different
// seeds → different programs.
func TestKernelsDeterministic(t *testing.T) {
	for _, class := range gen.Classes() {
		a, b := gen.Kernel(class, 7), gen.Kernel(class, 7)
		if len(a.Text) != len(b.Text) {
			t.Fatalf("%s: same seed produced different program sizes", class)
		}
		for i := range a.Text {
			if a.Text[i] != b.Text[i] {
				t.Fatalf("%s: same seed diverged at instruction %d", class, i)
			}
		}
		c := gen.Kernel(class, 8)
		same := len(a.Text) == len(c.Text)
		if same {
			for i := range a.Text {
				if a.Text[i] != c.Text[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 produced identical programs", class)
		}
	}
}

// TestSabotageCaught is the oracle's self-test: an intentionally buggy
// core (every µop result bit-flipped from the middle of the run onward)
// must produce a first-divergence report naming the retiring PC.
func TestSabotageCaught(t *testing.T) {
	for _, class := range gen.Classes() {
		prog := gen.Kernel(class, 1)
		clean := Run(prog, Config{CPU: cpu.DefaultConfig()})
		if !clean.Conformant() {
			t.Fatalf("%s: clean run not conformant: %v", class, clean.Divergence)
		}
		bad := Run(prog, Config{
			CPU:          cpu.DefaultConfig(),
			SabotageSeq:  clean.LastSeq / 2,
			SabotageMask: 1 << 13,
		})
		d := bad.Divergence
		if d == nil {
			t.Fatalf("%s: sabotaged core passed conformance", class)
		}
		if d.RIP < 0 || d.RIP >= int64(len(prog.Text)) {
			t.Fatalf("%s: divergence does not name a valid retiring PC: rip %d", class, d.RIP)
		}
		r := d.String()
		if !strings.Contains(r, "divergence") || !strings.Contains(r, ">") {
			t.Fatalf("%s: report missing divergence header or window marker:\n%s", class, r)
		}
		if !strings.Contains(r, prog.Text[d.RIP].String()) {
			t.Fatalf("%s: report window does not show the instruction at rip %d:\n%s", class, d.RIP, r)
		}
	}
}

// TestSabotagedStoreData drives the sabotage through a store's data path
// and checks the divergence is attributed at the retiring store.
func TestSabotagedStoreData(t *testing.T) {
	prog := gen.Kernel("sq", 3)
	clean := Run(prog, Config{CPU: cpu.DefaultConfig()})
	if !clean.Conformant() {
		t.Fatalf("clean run not conformant: %v", clean.Divergence)
	}
	bad := Run(prog, Config{CPU: cpu.DefaultConfig(), SabotageSeq: clean.LastSeq / 3, SabotageMask: 0xff00})
	if bad.Divergence == nil {
		t.Fatal("sabotaged sq kernel passed conformance")
	}
	if bad.Retired >= clean.Retired {
		t.Fatalf("divergence not ahead of completion: retired %d of %d", bad.Retired, clean.Retired)
	}
}

// TestWorkloadLockstep runs real benchmark kernels — not generated ones —
// through the lockstep oracle, tying the conformance engine to the same
// programs campaigns inject faults into.
func TestWorkloadLockstep(t *testing.T) {
	names := []string{"qsort", "sha", "fft"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		rep := Run(w.Program(), Config{CPU: cpu.DefaultConfig(), MaxCycles: 50_000_000})
		if !rep.Conformant() {
			t.Fatalf("workload %s: timeout=%v divergence:\n%v", name, rep.Timeout, rep.Divergence)
		}
	}
}

// TestMemoryDivergenceDetected white-boxes the final page-walk diff,
// which no retire-boundary check covers: run the core and the reference
// on programs identical except for one stored value, and the post-run
// comparison must name the differing address.
func TestMemoryDivergenceDetected(t *testing.T) {
	src := func(v int) string {
		return "\tli r11, " + itoa(isa.DataBase) +
			"\n\tli r1, " + itoa(v) +
			"\n\tsd [r11+40], r1\n\tout r1\n\thalt\n"
	}
	progA := asm.MustAssemble("memA", src(0x11))
	progB := asm.MustAssemble("memB", src(0x22))
	run := func(prog *isa.Program) (*cpu.Core, *interp.Machine) {
		core := cpu.New(cpu.DefaultConfig(), prog)
		core.Run(1_000_000)
		ref := interp.NewMachine(prog)
		for ref.Step() {
		}
		if core.Halted() != cpu.HaltOK || ref.Halt() != interp.HaltOK {
			t.Fatalf("setup: core %v, ref %v", core.Halted(), ref.Halt())
		}
		return core, ref
	}
	coreA, refA := run(progA)
	if d := compareMemory(progA, coreA, refA); d != nil {
		t.Fatalf("matched runs reported a memory divergence: %v", d)
	}
	_, refB := run(progB)
	d := compareMemory(progA, coreA, refB)
	if d == nil {
		t.Fatal("differing memory images not detected")
	}
	if d.Kind != KindMemory {
		t.Fatalf("kind = %v, want %v", d.Kind, KindMemory)
	}
	if !strings.Contains(d.Detail, "0x1028") {
		t.Fatalf("detail does not name the differing address: %s", d.Detail)
	}
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// TestTimeoutIsNotDivergence: an exhausted cycle budget must be reported
// as inconclusive, never as a divergence.
func TestTimeoutIsNotDivergence(t *testing.T) {
	prog := gen.Kernel("bp", 2)
	rep := Run(prog, Config{CPU: cpu.DefaultConfig(), MaxCycles: 50})
	if !rep.Timeout {
		t.Fatalf("expected timeout with a 50-cycle budget, got halt %v", rep.Halt)
	}
	if rep.Divergence != nil {
		t.Fatalf("timeout misreported as divergence: %v", rep.Divergence)
	}
	if rep.Conformant() {
		t.Fatal("timed-out run must not count as conformant")
	}
}

// TestStreamLockstep pushes a few fixed byte strings through the fuzz
// decoder and the oracle, so the fuzz path is covered even when `go test`
// runs without -fuzz.
func TestStreamLockstep(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("conformance"),
		func() []byte { // every opcode selector once, varied operands
			var d []byte
			for i := 0; i < 64; i++ {
				d = append(d, byte(i), byte(i*3), byte(i*5), byte(i*7), byte(i*11), byte(i>>3))
			}
			return d
		}(),
	}
	for i, data := range inputs {
		prog := gen.DecodeStream(data)
		rep := Run(prog, Config{CPU: cpu.DefaultConfig(), MaxCycles: 2_000_000})
		if rep.Timeout {
			t.Fatalf("input %d: timeout", i)
		}
		if rep.Divergence != nil {
			t.Fatalf("input %d:\n%s", i, rep.Divergence)
		}
	}
}
