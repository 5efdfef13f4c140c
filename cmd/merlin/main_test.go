package main

import (
	"flag"
	"testing"
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
