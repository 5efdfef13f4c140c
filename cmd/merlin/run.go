package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"merlin/internal/asm"
	"merlin/internal/cpu"
	"merlin/internal/interp"
)

// runProgram implements `merlin run`: assemble and execute a µx64 assembly
// file on the simulated out-of-order core (or the in-order architectural
// interpreter), printing the committed output stream and pipeline
// statistics. It is the quickest way to experiment with the simulation
// substrate directly.
//
//	merlin run prog.s
//	merlin run -interp -v prog.s
//	echo 'li r1, 42
//	out r1
//	halt' | merlin run -
func runProgram(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		useInterp = fs.Bool("interp", false, "run on the architectural interpreter instead of the core")
		verbose   = fs.Bool("v", false, "print pipeline statistics")
		dis       = fs.Bool("d", false, "print the disassembly and exit")
		maxCycles = fs.Uint64("max-cycles", 100_000_000, "cycle budget")
		regs      = fs.Int("regs", 256, "physical registers")
		trace     = fs.Bool("trace", false, "print every committed instruction")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: merlin run [flags] prog.s  (or - for stdin)")
		return 2
	}

	var src []byte
	var err error
	name := fs.Arg(0)
	if name == "-" {
		src, err = io.ReadAll(os.Stdin)
		name = "stdin"
	} else {
		src, err = os.ReadFile(name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlin run:", err)
		return 1
	}

	prog, err := asm.Assemble(name, string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlin run:", err)
		return 1
	}

	if *dis {
		for i, in := range prog.Text {
			fmt.Printf("%4d:  %s\n", i, in)
		}
		return 0
	}

	if *useInterp {
		res := interp.Run(prog, *maxCycles)
		for _, v := range res.Output {
			fmt.Printf("%d\t(%#x)\n", int64(v), v)
		}
		fmt.Printf("-- halt: %v after %d instructions, %d exceptions\n", res.Halt, res.Steps, len(res.ExcLog))
		return 0
	}

	core := cpu.New(cpu.DefaultConfig().WithRF(*regs), prog)
	if *trace {
		traceRetires(core, os.Stderr)
	}
	res := core.Run(*maxCycles)
	for _, v := range res.Output {
		fmt.Printf("%d\t(%#x)\n", int64(v), v)
	}
	fmt.Printf("-- halt: %v after %d cycles, %d instructions (IPC %.2f), %d exceptions\n",
		res.Halt, res.Cycles, res.Stats.CommittedInsts,
		float64(res.Stats.CommittedUops)/float64(max(res.Cycles, 1)), len(res.ExcLog))
	if *verbose {
		s := res.Stats
		fmt.Printf("   branches %d (%.1f%% mispredicted)  loads %d  stores %d  forwards %d  squashed µops %d\n",
			s.Branches, 100*float64(s.Mispredicts)/float64(max(s.Branches, 1)),
			s.Loads, s.Stores, s.SQForwards, s.SquashedUops)
		fmt.Printf("   L1I %d/%d hits  L1D %d/%d hits  L2 %d/%d hits  L1D writebacks %d\n",
			s.L1IStats.Hits, s.L1IStats.Hits+s.L1IStats.Misses,
			s.L1DStats.Hits, s.L1DStats.Hits+s.L1DStats.Misses,
			s.L2Stats.Hits, s.L2Stats.Hits+s.L2Stats.Misses,
			s.L1DStats.Writebacks)
	}
	return 0
}

// traceRetires streams one line per retired macro-instruction of c to w:
// cycle, sequence number of its last µop, RIP and disassembly. HALT and
// squashed wrong-path instructions do not retire and are not traced.
func traceRetires(c *cpu.Core, w io.Writer) {
	c.SetRetireWitness(func(ev cpu.RetireEvent) {
		fmt.Fprintf(w, "%8d  #%-6d %4d: %s\n", c.Cycle(), ev.Seq, ev.RIP, ev.Inst)
	})
}
