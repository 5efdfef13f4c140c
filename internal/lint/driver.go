package lint

import "sort"

// Result is one merlinvet run over the module: the findings, and the
// built-in exemptions that fired (with why).
type Result struct {
	// Findings are the diagnostics — each one fails the run.
	Findings []Diagnostic
	// Allowlisted are built-in analyzer exemptions that fired (e.g.
	// walltime's Result.Wall stamping sites).
	Allowlisted []AllowlistedSite
	// Packages is how many packages were analyzed.
	Packages int
}

// Clean reports whether the run passes: no findings.
func (r *Result) Clean() bool {
	return len(r.Findings) == 0
}

// Run loads every package in the module rooted at moduleDir,
// type-checks it, and runs each analyzer over the packages in its scope.
func Run(moduleDir string, analyzers []*Analyzer) (*Result, error) {
	loader, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	return RunPackages(loader, pkgs, analyzers, true), nil
}

// RunPackages runs the analyzers over already-loaded packages. When
// scoped is true each analyzer's Scope gates which packages it
// sees (the real-module behaviour); the fixture harness passes false
// to drive an analyzer over any fixture package.
func RunPackages(loader *Loader, pkgs []*Package, analyzers []*Analyzer, scoped bool) *Result {
	res := &Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if scoped && a.Scope != nil && !a.Scope[pkg.Path] {
				continue
			}
			a.Run(&Pass{Fset: loader.Fset, Pkg: pkg, diags: &res.Findings, allow: &res.Allowlisted})
		}
	}
	sortDiagnostics(res.Findings)
	sort.Slice(res.Allowlisted, func(i, j int) bool {
		a, b := res.Allowlisted[i], res.Allowlisted[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return res
}
