package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"merlin/internal/asm"
	"merlin/internal/interp"
)

// genProgram emits a random but always-terminating µx64 program: straight-
// line ALU blocks, aligned and (occasionally) misaligned memory traffic on
// a scratch buffer, bounded counted loops, data-dependent branches and
// outputs. Registers r1-r10 carry data; r11 = buffer base, r12 = zero,
// r13 = loop counter are reserved.
func genProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("\t.data\nbuf:\t.space 512\n\t.text\n")
	b.WriteString("\tli r11, buf\n\tli r12, 0\n")
	for r := 1; r <= 10; r++ {
		fmt.Fprintf(&b, "\tli r%d, %d\n", r, rng.Int63n(1<<20)-1<<19)
	}
	reg := func() int { return 1 + rng.Intn(10) }
	aluOps := []string{"add", "sub", "and", "or", "xor", "mul", "slt", "sltu"}
	immOps := []string{"addi", "andi", "ori", "xori", "slli", "srli", "srai", "muli"}
	label := 0

	emitOp := func() {
		switch rng.Intn(10) {
		case 0, 1, 2:
			fmt.Fprintf(&b, "\t%s r%d, r%d, r%d\n", aluOps[rng.Intn(len(aluOps))], reg(), reg(), reg())
		case 3, 4:
			imm := rng.Int63n(64)
			op := immOps[rng.Intn(len(immOps))]
			if strings.HasPrefix(op, "s") && op != "slti" {
				imm = rng.Int63n(63)
			}
			fmt.Fprintf(&b, "\t%s r%d, r%d, %d\n", op, reg(), reg(), imm)
		case 5:
			fmt.Fprintf(&b, "\tsd [r11+%d], r%d\n", 8*rng.Intn(32), reg())
		case 6:
			fmt.Fprintf(&b, "\tld r%d, [r11+%d]\n", reg(), 8*rng.Intn(32))
		case 7:
			sub := []string{"lw", "lhu", "lbu", "lb"}[rng.Intn(4)]
			// Possibly misaligned: exercises the fixup/DUE path.
			fmt.Fprintf(&b, "\t%s r%d, [r11+%d]\n", sub, reg(), rng.Intn(240))
		case 8:
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "\tldadd r%d, r%d, [r11+%d]\n", reg(), reg(), 8*rng.Intn(32))
			} else {
				fmt.Fprintf(&b, "\tstadd [r11+%d], r%d\n", 8*rng.Intn(32), reg())
			}
		case 9:
			fmt.Fprintf(&b, "\tout r%d\n", reg())
		}
	}

	for block := 0; block < 12; block++ {
		switch rng.Intn(4) {
		case 0: // counted loop
			n := 1 + rng.Intn(8)
			fmt.Fprintf(&b, "\tli r13, %d\nL%d:\n", n, label)
			for i := 0; i < 1+rng.Intn(3); i++ {
				emitOp()
			}
			fmt.Fprintf(&b, "\taddi r13, r13, -1\n\tbne r13, r12, L%d\n", label)
			label++
		case 1: // data-dependent skip
			fmt.Fprintf(&b, "\tblt r%d, r%d, L%d\n", reg(), reg(), label)
			emitOp()
			fmt.Fprintf(&b, "L%d:\n", label)
			label++
		default:
			for i := 0; i < 2+rng.Intn(3); i++ {
				emitOp()
			}
		}
	}
	for r := 1; r <= 5; r++ {
		fmt.Fprintf(&b, "\tout r%d\n", r)
	}
	b.WriteString("\thalt\n")
	return b.String()
}

// TestDifferentialAgainstInterpreter compares the out-of-order core against
// the in-order architectural interpreter on randomly generated programs:
// committed outputs, exception logs and halt causes must match exactly.
func TestDifferentialAgainstInterpreter(t *testing.T) {
	iterations := 150
	if testing.Short() {
		iterations = 25
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src := genProgram(rng)
		prog, err := asm.Assemble(fmt.Sprintf("fuzz%d", seed), src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		ref := interp.Run(prog, 2_000_000)
		if ref.Halt == interp.StepLimit {
			continue // unbounded by construction shouldn't happen; skip
		}

		for _, cfgName := range []string{"default", "small"} {
			cfg := DefaultConfig()
			if cfgName == "small" {
				cfg = cfg.WithRF(32).WithSQ(16).WithL1D(16 << 10)
				cfg.IQEntries = 8
				cfg.ROBEntries = 24
			}
			got := runChecked(t, New(cfg, prog), 10_000_000)

			wantHalt := map[interp.HaltReason]HaltReason{
				interp.HaltOK:         HaltOK,
				interp.CrashPageFault: CrashPageFault,
				interp.CrashBadFetch:  CrashBadFetch,
				interp.CrashDivZero:   CrashDivZero,
			}[ref.Halt]
			if got.Halt != wantHalt {
				t.Fatalf("seed %d (%s): halt %v, interpreter says %v\n%s", seed, cfgName, got.Halt, wantHalt, src)
			}
			if !reflect.DeepEqual(got.Output, ref.Output) {
				t.Fatalf("seed %d (%s): output %v, interpreter says %v\n%s", seed, cfgName, got.Output, ref.Output, src)
			}
			if !reflect.DeepEqual(got.ExcLog, ref.ExcLog) {
				t.Fatalf("seed %d (%s): exceptions %v vs %v\n%s", seed, cfgName, got.ExcLog, ref.ExcLog, src)
			}
		}
	}
}
