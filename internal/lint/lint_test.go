package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures drives every analyzer over its testdata fixture package
// through the want expectation harness: each has at least one true
// positive and at least one clean (not-flagged) idiom.
func TestFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			problems, err := CheckFixture(filepath.Join("testdata", "src", a.Name), a)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

// TestFixturesFailTheDriver asserts the driver-level contract behind
// merlinvet's nonzero exit: running an analyzer over its fixture
// produces real findings (the fixtures are violation corpora, so a
// Result over them must not be Clean).
func TestFixturesFailTheDriver(t *testing.T) {
	for _, a := range Analyzers() {
		res := fixtureResult(t, filepath.Join("testdata", "src", a.Name), a)
		if res.Clean() {
			t.Errorf("%s: no findings on its violation fixture — merlinvet would exit 0", a.Name)
		}
	}
}

// TestWalltimeBuiltinAllowlist asserts the built-in allowlist path: the
// fixture's AllowlistedMetric is exempted by the analyzer's table (not
// a directive) and surfaces in Result.Allowlisted with its reason.
func TestWalltimeBuiltinAllowlist(t *testing.T) {
	res := fixtureResult(t, filepath.Join("testdata", "src", "walltime"), WallTime)
	found := false
	for _, a := range res.Allowlisted {
		if a.Where == "AllowlistedMetric" {
			found = true
			if a.Reason == "" {
				t.Error("allowlisted site carries no reason")
			}
		}
	}
	if !found {
		t.Errorf("AllowlistedMetric not in allowlisted sites: %+v", res.Allowlisted)
	}
	for _, d := range res.Findings {
		if strings.Contains(d.Message, "AllowlistedMetric") {
			t.Errorf("allowlisted site still reported: %s", d)
		}
	}
}

// TestSabotageSortGuardDeleted is the acceptance sabotage check for
// maporder: take the fixture's *sanctioned* collect-then-sort function,
// delete the sort guard, and the analyzer must catch the now-unsorted
// loop (surfacing as an unexpected maporder001 in the harness).
func TestSabotageSortGuardDeleted(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "maporder", "maporder.go"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	removed := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "sort.Strings(keys)") && !removed {
			removed = true
			continue
		}
		if strings.Contains(line, `"sort"`) {
			continue // drop the now-unused import alongside the guard
		}
		kept = append(kept, line)
	}
	if !removed {
		t.Fatal("fixture no longer contains the sort.Strings guard")
	}
	dir := writeFixture(t, map[string]string{"maporder/maporder.go": strings.Join(kept, "\n")})
	problems, err := CheckFixture(filepath.Join(dir, "maporder"), MapOrder)
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for _, p := range problems {
		if strings.Contains(p, "unexpected finding") && strings.Contains(p, "maporder001") {
			caught = true
		}
	}
	if !caught {
		t.Errorf("deleting the sort guard was not caught by maporder; problems: %q", problems)
	}
}

// TestRealModuleClean is the driver test: merlinvet must run clean on
// the module as committed — every invariant holds, every deliberate
// exemption is on walltime's built-in allowlist.
func TestRealModuleClean(t *testing.T) {
	res, err := Run(moduleRoot(t), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Findings {
		t.Errorf("finding on real module: %s", d)
	}
	if res.Packages < 20 {
		t.Errorf("only %d packages analyzed — loader lost most of the module", res.Packages)
	}
	// The audited exemption surface as committed: the Wall-stamp and
	// heartbeat sites on walltime's allowlist.
	if len(res.Allowlisted) == 0 {
		t.Error("no allowlisted sites — the walltime allowlist stopped matching Runner.Run")
	}
}

// TestScopedRunFindsViolations drives the full driver (scoping
// included) over a synthetic module that violates detrand and walltime
// inside report-affecting package paths, proving Scope maps fixture
// paths the same way the real tree is scoped.
func TestScopedRunFindsViolations(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module merlin\n\ngo 1.22\n")
	write("internal/cpu/cpu.go", `// Package cpu stands in for the simulator core.
package cpu

import (
	"math/rand"
	"time"
)

// Tick is nondeterministic twice over.
func Tick() int64 { return rand.Int63() + time.Now().UnixNano() }
`)
	write("cmd/tool/main.go", `// Command tool is operator tooling: wall clock is fine here.
package main

import "time"

func main() { _ = time.Now() }
`)
	res, err := Run(dir, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var codes []string
	for _, d := range res.Findings {
		codes = append(codes, d.Code)
		if strings.Contains(d.Pos.Filename, "cmd") {
			t.Errorf("finding outside analyzer scope (cmd/ is operator tooling): %s", d)
		}
	}
	for _, want := range []string{"detrand001", "walltime001"} {
		found := false
		for _, c := range codes {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scoped run missed %s; findings: %v", want, res.Findings)
		}
	}
	if res.Clean() {
		t.Error("violating module reported clean — merlinvet would exit 0")
	}
}

// fixtureResult loads a testdata fixture and returns the raw Result
// (for asserting on allowlist hits that CheckFixture folds into
// pass/fail).
func fixtureResult(t *testing.T, dir string, a *Analyzer) *Result {
	t.Helper()
	_, _, res, err := runFixture(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// moduleRoot locates the repository root from the test's working
// directory (internal/lint).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// writeFixture materializes an in-memory fixture tree under a temp
// testdata/src-shaped root (with a go.mod above it so the loader can
// anchor) and returns that root.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module merlin\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(tmp, "src")
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
