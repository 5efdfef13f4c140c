package main

import (
	"flag"
	"strings"
	"testing"

	"merlin/internal/asm"
	"merlin/internal/cpu"
)

// TestDefaultStrategyIsForked: merlin without -strategy runs the fast path,
// and the retired preset's flag is gone. run registers the campaign flags on
// the flag set it is given; -list returns before any campaign starts.
func TestDefaultStrategyIsForked(t *testing.T) {
	fs := flag.NewFlagSet("merlin", flag.ContinueOnError)
	if code := run(fs, []string{"-list"}); code != 0 {
		t.Fatalf("merlin -list exited %d", code)
	}
	if f := fs.Lookup("strategy"); f == nil || f.DefValue != "forked" {
		t.Errorf("-strategy default: %+v, want forked", f)
	}
	if fs.Lookup("checkpoints") != nil {
		t.Error("-checkpoints is still a flag")
	}
}

// TestCommitTrace: merlin run -trace prints one line per retired
// instruction from the core's retire witness — never a squashed
// wrong-path instruction, and not HALT, which does not retire.
func TestCommitTrace(t *testing.T) {
	p, err := asm.Assemble("tr", `
		li r1, 3
		out r1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	c := cpu.New(cpu.DefaultConfig(), p)
	traceRetires(c, &buf)
	if res := c.Run(10_000); res.Halt != cpu.HaltOK {
		t.Fatal(res.Halt)
	}
	trace := buf.String()
	for _, want := range []string{"li r1, 3", "out r1"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
	if n := strings.Count(trace, "\n"); n != 2 || strings.Contains(trace, "halt") {
		t.Errorf("trace has %d lines, want 2 and no halt:\n%s", n, trace)
	}
}
