// Package lint implements merlinvet, the project-specific static-analysis
// pass behind the campaign's bit-identity guarantee: replay/forked/fleet
// reports, content-addressed artifact reuse and reproducible pruning all
// require that no unseeded randomness, no wall-clock read and no
// map-iteration order leak into report-affecting state.
//
// The package is stdlib-only (go/parser, go/ast, go/types + the source
// importer); the module has zero dependencies and must stay that way.
// Three analyzers run over the module. Each guards against
// nondeterminism that a run usually survives, or that never reaches a
// report, so the bit-for-bit pins and differential suites cannot stand
// in for it:
//
//	detrand   no global math/rand, crypto/rand, or wall-clock-seeded
//	          sources in report-affecting packages
//	walltime  no time.Now/Since/Until in report-affecting packages
//	          outside the built-in allowlisted wall-clock-metric sites;
//	          allowlist entries that no longer match a real site are
//	          findings themselves
//	maporder  no map iteration feeding slices, writers, encoders,
//	          hashers or event emits without an intervening sort
//
// walltime's allowlist is the only exemption mechanism: there are no
// in-source suppression comments.
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
	// Codes lists every diagnostic code the analyzer can emit.
	Codes []string
	// Scope is the set of import paths the analyzer runs on when driven
	// over the real module; nil means every package. The fixture harness
	// bypasses it.
	Scope map[string]bool
	Run   func(*Pass)
}

// Analyzers returns every merlinvet analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, WallTime, MapOrder}
}

// reportAffecting is the scope of detrand and walltime: every package a
// report, an artifact hash or a merged fleet result is derived from.
// internal/server is deliberately out of scope: event timestamps,
// uptime and queue ages are wall-clock by design and never feed Report
// bytes. cmd/* and examples/ are operator tooling.
var reportAffecting = map[string]bool{
	"merlin":                              true,
	"merlin/internal/asm":                 true,
	"merlin/internal/campaign":            true,
	"merlin/internal/chaos":               true,
	"merlin/internal/chaos/suite":         true,
	"merlin/internal/conformance":         true,
	"merlin/internal/conformance/gen":     true,
	"merlin/internal/cpu":                 true,
	"merlin/internal/experiments/relyzer": true,
	"merlin/internal/fault":               true,
	"merlin/internal/fleet":               true,
	"merlin/internal/guestflow":           true,
	"merlin/internal/interp":              true,
	"merlin/internal/isa":                 true,
	"merlin/internal/lifetime":            true,
	"merlin/internal/mem":                 true,
	"merlin/internal/merlin":              true,
	"merlin/internal/sampling":            true,
	"merlin/internal/stats":               true,
	"merlin/internal/store":               true,
	"merlin/internal/workloads":           true,
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
