package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"sort"
)

// This file is the hand-rolled expectation harness the analyzer suite
// runs over the testdata fixture packages. Fixture sources annotate the
// behaviour they expect, line by line:
//
//	x := rand.Intn(10) // want "detrand001"
//
// says a finding matching the pattern must land on this line. Every
// finding must be claimed by a marker and every marker must be
// satisfied, so a fixture fails both when an analyzer goes quiet (a
// deleted sort guard must resurface as an unmatched want) and when it
// overfires.

// FixtureRoot is the import-path prefix fixture packages live under;
// the harness mounts the testdata/src directory there so fixtures stay
// invisible to the real module build.
const FixtureRoot = "merlinvet.test"

var wantRx = regexp.MustCompile(`// want "([^"]+)"`)

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// CheckFixture loads the fixture package at dir (a directory under some
// testdata/src), runs the analyzer over it with scoping bypassed, and
// verifies the findings against the fixture's want markers. It returns
// one problem string per mismatch; an empty slice means the fixture
// passed.
func CheckFixture(dir string, a *Analyzer) ([]string, error) {
	loader, pkg, res, err := runFixture(dir, a)
	if err != nil {
		return nil, err
	}
	var exps []*expectation
	for _, f := range pkg.Files {
		fexps, err := parseExpectations(loader, f)
		if err != nil {
			return nil, err
		}
		exps = append(exps, fexps...)
	}

	var problems []string
findings:
	for _, d := range res.Findings {
		text := d.Code + ": " + d.Message
		for _, e := range exps {
			if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.rx.MatchString(text) {
				e.matched = true
				continue findings
			}
		}
		problems = append(problems, fmt.Sprintf("unexpected finding at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, text))
	}
	for _, e := range exps {
		if !e.matched {
			problems = append(problems, fmt.Sprintf("unmatched // want %q at %s:%d: the analyzer went quiet here", e.rx, filepath.Base(e.file), e.line))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// parseExpectations scans one fixture file's comments for want markers.
func parseExpectations(loader *Loader, f *ast.File) ([]*expectation, error) {
	var exps []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			pos := loader.Fset.Position(c.Pos())
			for _, m := range wantRx.FindAllStringSubmatch(c.Text, -1) {
				rx, err := regexp.Compile(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad expectation pattern %q: %w", pos.Filename, pos.Line, m[1], err)
				}
				exps = append(exps, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
			}
		}
	}
	return exps, nil
}

// runFixture loads the fixture package at dir, mounting its
// testdata/src parent under FixtureRoot, and runs the analyzer over it
// with scoping bypassed.
func runFixture(dir string, a *Analyzer) (*Loader, *Package, *Result, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	moduleDir, err := ModuleRoot(abs)
	if err != nil {
		return nil, nil, nil, err
	}
	loader, err := NewLoader(moduleDir)
	if err != nil {
		return nil, nil, nil, err
	}
	loader.ExtraRoots = map[string]string{FixtureRoot: filepath.Dir(abs)}
	pkg, err := loader.Load(FixtureRoot + "/" + filepath.Base(abs))
	if err != nil {
		return nil, nil, nil, err
	}
	return loader, pkg, RunPackages(loader, []*Package{pkg}, []*Analyzer{a}, false), nil
}
