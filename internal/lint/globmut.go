package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GlobMut forbids mutable package-level state in report-affecting
// packages. Every campaign guarantee — pruned-equals-full, bit-identical
// replay/forked/fleet reports, content-addressed artifact
// reuse — assumes a campaign is a pure function of (workload, config,
// seed). A package-level variable that any call can mutate makes results
// depend on what else ran in the process: two campaigns in one daemon, a
// test ordering change, or a concurrent request can silently change
// report bytes. State belongs on explicit receivers threaded through the
// call graph.
//
//	globmut001  package-level var mutated (assignment, element or field
//	            write, ++/--, address taken, pointer-receiver call)
//	globmut002  exported package-level var: a mutable API surface any
//	            importer can write to
//
// Read-only lookup tables (opNames, haltNames) never trip globmut001:
// their declaration initializer is not a mutation. Error sentinels
// (`var ErrX = errors.New(...)`) are exempt from globmut002 — the
// errors.Is idiom requires an exported var and convention treats them as
// immutable. Deliberate exceptions (init-time registries, memoization
// caches that never reach report bytes) carry //lint:allow with a
// reason, so the exemption set stays audited.
var GlobMut = &Analyzer{
	Name:  "globmut",
	Doc:   "no mutable package-level state in report-affecting packages",
	Codes: []string{"globmut001", "globmut002"},
	AppliesTo: inPaths(
		"merlin",
		"merlin/internal/cpu",
		"merlin/internal/interp",
		"merlin/internal/mem",
		"merlin/internal/campaign",
		"merlin/internal/sampling",
		"merlin/internal/stats",
		"merlin/internal/lifetime",
		"merlin/internal/fault",
		"merlin/internal/isa",
		"merlin/internal/merlin",
		"merlin/internal/guestflow",
		"merlin/internal/experiments/relyzer",
		"merlin/internal/workloads",
		"merlin/internal/asm",
		"merlin/internal/conformance",
		"merlin/internal/conformance/gen",
		"merlin/internal/fleet",
		"merlin/internal/store",
		"merlin/internal/chaos",
		"merlin/internal/chaos/suite",
	),
	Run: runGlobMut,
}

func runGlobMut(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// globmut002: exported package-level vars.
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" || !name.IsExported() {
						continue
					}
					v, _ := info.Defs[name].(*types.Var)
					if v == nil || isErrorSentinel(v) {
						continue
					}
					pass.Reportf(name.Pos(), "globmut002",
						"exported package-level var %s: any importer can mutate it and change report bytes — export a function or thread it through a config struct", name.Name)
				}
			}
		}
		// globmut001: in-package mutations.
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true // := declares locals; it cannot target package scope
				}
				for _, lhs := range n.Lhs {
					if v := mutatedPkgVar(info, pass.Pkg.Types, lhs); v != nil {
						pass.Reportf(lhs.Pos(), "globmut001",
							"assignment mutates package-level var %s: campaign state must live on explicit receivers, not globals", v.Name())
					}
				}
			case *ast.IncDecStmt:
				if v := mutatedPkgVar(info, pass.Pkg.Types, n.X); v != nil {
					pass.Reportf(n.X.Pos(), "globmut001",
						"%s mutates package-level var %s", n.Tok, v.Name())
				}
			case *ast.UnaryExpr:
				if n.Op != token.AND {
					return true
				}
				if v := resolvePkgVar(info, pass.Pkg.Types, n.X); v != nil {
					pass.Reportf(n.Pos(), "globmut001",
						"address of package-level var %s taken: the pointer makes it mutable from anywhere it escapes to", v.Name())
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				v := resolvePkgVar(info, pass.Pkg.Types, sel.X)
				if v == nil {
					return true
				}
				fn, _ := info.Uses[sel.Sel].(*types.Func)
				if fn == nil || !hasPointerReceiver(fn) {
					return true
				}
				pass.Reportf(n.Pos(), "globmut001",
					"%s.%s may mutate package-level var %s (pointer receiver)", v.Name(), fn.Name(), v.Name())
			}
			return true
		})
	}
}

// mutatedPkgVar resolves an assignment target to the package-level var
// (of the package under analysis) whose storage it mutates: the var
// itself, an element (x[i]), a field (x.f), or a dereference rooted at
// it (*p where p is the var — the pointee is global-reachable state).
func mutatedPkgVar(info *types.Info, pkg *types.Package, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v := pkgVarObj(info.Uses[x.Sel], pkg); v != nil {
				return v
			}
			e = x.X
		case *ast.Ident:
			return pkgVarObj(info.Uses[x], pkg)
		default:
			return nil
		}
	}
}

// resolvePkgVar resolves e to a package-level var only when e names the
// var directly (through parens): used for address-taking and method
// calls, where descending into elements would overreach.
func resolvePkgVar(info *types.Info, pkg *types.Package, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return pkgVarObj(info.Uses[x], pkg)
		case *ast.SelectorExpr:
			return pkgVarObj(info.Uses[x.Sel], pkg)
		default:
			return nil
		}
	}
}

// pkgVarObj filters obj down to a package-scope *types.Var of pkg.
func pkgVarObj(obj types.Object, pkg *types.Package) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg() != pkg {
		return nil
	}
	if v.Parent() != pkg.Scope() {
		return nil
	}
	return v
}

// isErrorSentinel reports whether v is an error-typed var: the exported
// `var ErrX = errors.New(...)` sentinel that errors.Is comparisons
// require. Convention treats sentinels as immutable, so they are exempt
// from globmut002 (mutating one would still trip globmut001).
func isErrorSentinel(v *types.Var) bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(v.Type(), errType)
}

// hasPointerReceiver reports whether fn is a method with a pointer
// receiver — the shape that can mutate its receiver.
func hasPointerReceiver(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	_, ok := sig.Recv().Type().(*types.Pointer)
	return ok
}
