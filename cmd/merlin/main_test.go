package main

import (
	"flag"
	"io"
	"os"
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

// TestBaselineSpeedupWhenNothingInjected: when the reduction prunes every
// fault, -baseline says MeRLiN injected nothing instead of printing the
// infinite ratios of a division by zero.
func TestBaselineSpeedupWhenNothingInjected(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := run(flag.NewFlagSet("merlin", flag.ContinueOnError),
		[]string{"-workload", "sha", "-structure", "SQ", "-faults", "3", "-baseline"})
	os.Stdout = stdout
	w.Close()
	got := <-out
	if code != 0 {
		t.Fatalf("merlin -baseline exited %d:\n%s", code, got)
	}
	if !strings.Contains(got, "MeRLiN injected no fault") || strings.Contains(got, "Inf") {
		t.Errorf("speedup line of an empty reduced campaign:\n%s", got)
	}
}
