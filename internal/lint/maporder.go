package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map whose body produces ordered output
// — appending to an outer slice, writing to an encoder/hasher/writer,
// printing, sending on a channel or emitting events — without an
// intervening sort. Go randomizes map iteration order per run, so any
// such loop is a latent nondeterminism bug: it is exactly the class
// that would break bit-identical reports, NDJSON event streams and the
// sha256 content addresses of gob-encoded artifacts while passing every
// single-run test.
//
// The sanctioned idiom — collect keys, sort, range the sorted slice —
// is recognized: an append target that is passed to a sort/slices call
// later in the same function is not flagged.
//
//	maporder001  append to outer slice inside map range, never sorted
//	maporder002  write/encode/hash/print inside map range
//	maporder003  channel send or event emit inside map range
var MapOrder = &Analyzer{
	Name:  "maporder",
	Doc:   "no map-iteration order leaking into ordered output",
	Codes: []string{"maporder001", "maporder002", "maporder003"},
	// No Scope: ordering bugs matter anywhere in the module —
	// reports, wire responses, CSV tables and CLI output all get diffed
	// or hashed.
	Run: runMapOrder,
}

// orderedWriteMethods are method names that externalize bytes in call
// order (io.Writer, encoders, hashers).
var orderedWriteMethods = map[string]bool{
	"Encode": true, "Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runMapOrder(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// Pair each map-range with its innermost enclosing function
		// body so the sort-guard search has a bounded scope.
		var funcs []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, info, rs, enclosingBody(funcs, rs))
			return true
		})
	}
}

// enclosingBody returns the body of the innermost function containing n.
func enclosingBody(funcs []ast.Node, n ast.Node) *ast.BlockStmt {
	var best ast.Node
	for _, f := range funcs {
		if f.Pos() <= n.Pos() && n.End() <= f.End() {
			if best == nil || (best.Pos() <= f.Pos() && f.End() <= best.End()) {
				best = f
			}
		}
	}
	switch f := best.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

func checkMapRange(pass *Pass, info *types.Info, rs *ast.RangeStmt, body *ast.BlockStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj := appendTarget(info, n); obj != nil && declaredOutside(obj, rs) {
				if !sortedAfter(info, body, rs, obj) {
					pass.Reportf(n.Pos(), "maporder001",
						"append to %s inside range over map with no sort before use: iteration order is randomized per run — collect keys, sort, then range the slice (or sort %s afterwards)", obj.Name(), obj.Name())
				}
				return true
			}
			if fn := funcObj(info, n.Fun); fn != nil {
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
					pass.Reportf(n.Pos(), "maporder002",
						"fmt.%s inside range over map: output order is randomized per run — iterate a sorted key slice instead", fn.Name())
					return true
				}
				if orderedWriteMethods[fn.Name()] && isMethodCall(info, n) && receiverOutside(info, n, rs) {
					pass.Reportf(n.Pos(), "maporder002",
						"%s call inside range over map: bytes reach the writer/encoder/hasher in randomized order — sort the keys first (this is how sha256 artifact keys and NDJSON streams go nondeterministic)", fn.Name())
					return true
				}
				if strings.Contains(strings.ToLower(fn.Name()), "emit") {
					pass.Reportf(n.Pos(), "maporder003",
						"%s inside range over map: events fire in randomized order — iterate a sorted key slice", fn.Name())
					return true
				}
			}
		case *ast.SendStmt:
			if obj := baseObject(info, n.Chan); obj == nil || declaredOutside(obj, rs) {
				pass.Reportf(n.Pos(), "maporder003",
					"channel send inside range over map: downstream consumers see randomized order — iterate a sorted key slice")
			}
		}
		return true
	})
}

// appendTarget returns the object a `x = append(x, ...)` call grows, or
// nil when call is not an append to an identifiable variable.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	return baseObject(info, call.Args[0])
}

// baseObject resolves the root identifier of e (x, x.f, x[i]) to its
// object.
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if o := info.Uses[v]; o != nil {
				return o
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether obj's declaration sits outside the
// range statement (an accumulator that survives the loop).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return !(rs.Pos() <= obj.Pos() && obj.Pos() < rs.End())
}

// isMethodCall reports whether call invokes a method (selector with a
// selection entry).
func isMethodCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	return s != nil && s.Kind() == types.MethodVal
}

// receiverOutside reports whether the method call's receiver chain
// roots at an object declared outside the loop (a per-iteration buffer
// is order-safe).
func receiverOutside(info *types.Info, call *ast.CallExpr, rs *ast.RangeStmt) bool {
	sel := call.Fun.(*ast.SelectorExpr)
	obj := baseObject(info, sel.X)
	return obj == nil || declaredOutside(obj, rs)
}

// sortedAfter reports whether, lexically after the range statement in
// the same function body, obj is passed to any sort or slices call —
// the "intervening sort" that makes collect-then-sort safe.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	if body == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := funcObj(info, call.Fun)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			found := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
					return false
				}
				return true
			})
			if found {
				sorted = true
				break
			}
		}
		return !sorted
	})
	return sorted
}
