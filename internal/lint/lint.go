// Package lint implements merlinvet, the project-specific static-analysis
// pass that machine-checks the invariants every campaign guarantee rests
// on: bit-identical reports across replay/forked/fleet
// execution, content-addressed artifact reuse (gob+sha256), and
// reproducible pruning all require that no unseeded randomness, no
// wall-clock reads and no map-iteration order ever leak into
// report-affecting state, and that test-only sabotage hooks stay out of
// production paths.
//
// The package is stdlib-only (go/parser, go/ast, go/types + the source
// importer); the module has zero dependencies and must stay that way.
// Six analyzers run over every package in the module:
//
//	detrand   no global math/rand, crypto/rand, or wall-clock-seeded
//	          sources in report-affecting packages
//	walltime  no time.Now/Since/Until outside the allowlisted
//	          wall-clock-metric sites (Result.Wall stamping, fleet
//	          heartbeat/TTL clocks); built-in allowlist entries that no
//	          longer match a real site are findings themselves
//	maporder  no map iteration feeding slices, writers, encoders,
//	          hashers or event emits without an intervening sort
//	testhook  test-only hooks (doc-marked "test-only") referenced only
//	          from _test.go files or explicitly allowed sites
//	ctxflow   exported campaign/server/fleet entry points that loop
//	          over faults or do network I/O take a context.Context
//	          first and do not synthesize context.Background()
//	globmut   no mutable package-level state in report-affecting
//	          packages (mutated or exported package-level vars)
//
// Findings carry short codes (detrand001, ...) and can be suppressed at
// a specific line with an explanation:
//
//	//lint:allow detrand001 fixture seed, never reaches a report
//
// The driver counts and prints every suppression, and reports unused or
// malformed directives as findings in their own right, so the set of
// deliberate exemptions stays audited.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, a short stable code (e.g.
// "maporder001") and a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Code    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Code, d.Message)
}

// AllowlistedSite records a built-in allowlist hit: a call that an
// analyzer recognized as a deliberate, documented exemption (e.g. the
// Result.Wall stamp in a scheduler) rather than a finding.
type AllowlistedSite struct {
	Pos    token.Position
	Code   string
	Where  string // enclosing function, e.g. "Runner.Run"
	Reason string
}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// All holds every package loaded in this run, in sorted path order.
	// Analyzers that need whole-program facts (testhook discovers
	// doc-marked hooks anywhere in the module) read it.
	All []*Package

	diags *[]Diagnostic
	allow *[]AllowlistedSite
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, code, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	})
}

// Allowlisted records a built-in allowlist hit at pos (not a finding,
// but surfaced by the driver so exemptions stay visible).
func (p *Pass) Allowlisted(pos token.Pos, code, where, reason string) {
	*p.allow = append(*p.allow, AllowlistedSite{
		Pos:    p.Fset.Position(pos),
		Code:   code,
		Where:  where,
		Reason: reason,
	})
}

// An Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	// Codes lists every diagnostic code the analyzer can emit, for
	// directive validation (//lint:allow of an unknown code is itself a
	// finding).
	Codes []string
	// AppliesTo reports whether the analyzer runs on the package with
	// the given import path when driven over the real module. The
	// fixture harness bypasses it.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass)
}

// Analyzers returns every merlinvet analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, WallTime, MapOrder, TestHook, CtxFlow, GlobMut}
}

// inPaths returns an AppliesTo matcher for an exact import-path set.
func inPaths(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(pkgPath string) bool { return set[pkgPath] }
}

// --- shared AST/type helpers used by several analyzers ---

// funcObj resolves the called/used identifier to a *types.Func from the
// given package path, or nil. It sees through selector expressions
// (pkg.Fn, recv.Method) and plain identifiers, so import renames and
// method values are all handled by type information, not text.
func funcObj(info *types.Info, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether e resolves to the package-level function
// pkgPath.name (not a method).
func isPkgFunc(info *types.Info, e ast.Expr, pkgPath, name string) bool {
	fn := funcObj(info, e)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// enclosingFuncName returns a short name for the innermost function
// declaration in file containing pos: "Fn" for functions,
// "Recv.Method" for methods (pointer receivers reported without the
// star), or "" when pos sits outside any function (e.g. a package-level
// var initializer).
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos > fd.End() {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return fd.Name.Name
		}
		return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return ""
}

// recvTypeName extracts the base type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	default:
		return ""
	}
}

// sortDiagnostics orders findings by file, line, column, code — the
// tool that polices determinism must itself print deterministically
// (map-keyed type info is iterated during analysis).
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// pathLess orders packages by import path with the module root first.
func pathLess(a, b string) bool {
	if da, db := strings.Count(a, "/"), strings.Count(b, "/"); da != db && (a == "merlin" || b == "merlin") {
		return a == "merlin"
	}
	return a < b
}
