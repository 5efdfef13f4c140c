package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures drives every analyzer over its testdata fixture package
// through the want/allowed expectation harness: each has at least one
// true positive, at least one clean (not-flagged) idiom and at least
// one suppressed-with-reason case.
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
		if len(res.Findings) == 0 {
			t.Errorf("%s: no findings on its violation fixture — merlinvet would exit 0", a.Name)
		}
		if len(res.Suppressed) == 0 {
			t.Errorf("%s: no suppressed finding in fixture — //lint:allow path untested", a.Name)
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

// TestSabotageHookFromNonTestFile is the acceptance sabotage check for
// testhook: a fresh non-test file referencing a doc-marked test-only
// hook, with no directive, must be caught.
func TestSabotageHookFromNonTestFile(t *testing.T) {
	dir := writeFixture(t, map[string]string{
		"sab/hook/hook.go": `// Package hook defines a sabotage hook.
package hook

// Corrupt installs a test-only corruption hook.
func Corrupt() {}
`,
		"sab/leak/leak.go": `// Package leak reaches the hook from production code.
package leak

import "merlinvet.test/sab/hook"

func Oops() { hook.Corrupt() }
`,
	})
	problems, err := CheckFixture(filepath.Join(dir, "sab"), TestHook)
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for _, p := range problems {
		if strings.Contains(p, "unexpected finding") && strings.Contains(p, "testhook001") {
			caught = true
		}
	}
	if !caught {
		t.Errorf("test-only hook reference from a non-test file was not caught; problems: %q", problems)
	}
}

// TestRealModuleClean is the driver test: merlinvet must run clean on
// the module as committed — every invariant holds, every deliberate
// exemption is directive- or allowlist-audited.
func TestRealModuleClean(t *testing.T) {
	res, err := Run(moduleRoot(t), Analyzers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Findings {
		t.Errorf("finding on real module: %s", d)
	}
	for _, u := range res.Unused {
		t.Errorf("unused //lint:allow %s at %s:%d", u.Code, u.Pos.Filename, u.Pos.Line)
	}
	if res.Packages < 20 {
		t.Errorf("only %d packages analyzed — loader lost most of the module", res.Packages)
	}
	// The audited exemption surface as committed: the conformance
	// sabotage path and the shutdown drains (directives) and the
	// Wall-stamp/heartbeat sites (allowlist).
	if len(res.Suppressed) == 0 {
		t.Error("no suppressed findings — the //lint:allow directives on the real tree stopped matching")
	}
	if len(res.Allowlisted) == 0 {
		t.Error("no allowlisted sites — the walltime allowlist stopped matching Runner.Run")
	}
}

// TestScopedRunFindsViolations drives the full driver (scoping
// included) over a synthetic module that violates detrand and walltime
// inside report-affecting package paths, proving AppliesTo maps fixture
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
	res, err := Run(dir, Analyzers(), nil)
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

// TestDirectiveHygiene covers the directive bookkeeping findings:
// missing reasons, unknown codes and stale (unused) directives are all
// failures in their own right.
func TestDirectiveHygiene(t *testing.T) {
	src := `package p

//lint:allow walltime001
func A() {}

//lint:allow nosuch001 a reason
func B() {}

//lint:allow walltime001 stale: nothing on the next line trips it
func C() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"walltime001": true}
	dirs, bad := collectDirectives(fset, []*ast.File{f}, known)
	if len(bad) != 2 {
		t.Fatalf("want 2 malformed-directive findings (missing reason, unknown code), got %d: %v", len(bad), bad)
	}
	for _, d := range bad {
		if d.Code != directiveSyntax {
			t.Errorf("malformed directive reported under %s, want %s", d.Code, directiveSyntax)
		}
	}
	if len(dirs) != 1 {
		t.Fatalf("want 1 well-formed directive, got %d", len(dirs))
	}
	_, _, unused := applySuppressions(dirs, nil)
	if len(unused) != 1 {
		t.Errorf("stale directive not reported unused: %v", unused)
	}
}

// fixtureResult loads a testdata fixture and returns the raw Result
// (for asserting on allowlist hits and suppression bookkeeping that
// CheckFixture folds into pass/fail).
func fixtureResult(t *testing.T, dir string, a *Analyzer) *Result {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	srcRoot := filepath.Dir(abs)
	moduleDir, err := moduleRootAbove(srcRoot)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	loader.ExtraRoots = map[string]string{FixtureRoot: srcRoot}
	pkgs, err := loader.LoadUnder(FixtureRoot + "/" + filepath.Base(abs))
	if err != nil {
		t.Fatal(err)
	}
	return RunPackages(loader, pkgs, []*Analyzer{a}, false)
}

// moduleRoot locates the repository root from the test's working
// directory (internal/lint).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := moduleRootAbove(".")
	if err == nil {
		return root
	}
	abs, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return abs
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
