package merlin

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLibraryImportGraph guards what a library user compiles: package
// merlin's non-test dependencies are the paper's pipeline plus the daemon
// and fleet, never the chaos engine (operator tooling behind `merlin
// chaos`) or the figure scaffolding under internal/experiments. And
// internal/store holds values, not machinery: it never imports the
// injection engine.
func TestLibraryImportGraph(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		for _, banned := range []string{"merlin/internal/chaos", "merlin/internal/experiments"} {
			if dep == banned || strings.HasPrefix(dep, banned+"/") {
				t.Errorf("package merlin depends on %s", dep)
			}
		}
	}
	out, err = exec.Command("go", "list", "-deps", "./internal/store").Output()
	if err != nil {
		t.Fatalf("go list -deps ./internal/store: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "merlin/internal/campaign" {
			t.Error("internal/store depends on internal/campaign")
		}
	}
}
