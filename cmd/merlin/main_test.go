package main

import (
	"flag"
	"os"
	"testing"
)

// TestDefaultStrategyIsForked: merlin without -strategy runs the fast path,
// and the retired preset's flag is gone. run registers the campaign flags on
// the process flag set; -list returns before any campaign starts.
func TestDefaultStrategyIsForked(t *testing.T) {
	defer func(args []string) { os.Args = args }(os.Args)
	os.Args = []string{"merlin", "-list"}
	if code := run(); code != 0 {
		t.Fatalf("merlin -list exited %d", code)
	}
	if f := flag.Lookup("strategy"); f == nil || f.DefValue != "forked" {
		t.Errorf("-strategy default: %+v, want forked", f)
	}
	if flag.Lookup("checkpoints") != nil {
		t.Error("-checkpoints is still a flag")
	}
}
