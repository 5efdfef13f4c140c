package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces cancellation plumbing in the packages that loop or
// block: campaign schedulers iterate tens of thousands of faults,
// fleet dispatch and the daemon do network I/O, and all of them learned
// (PR 3) to take a context and honor DELETE /campaigns/{id}. An
// exported entry point that loops over faults or performs HTTP I/O
// without a leading context.Context can't be cancelled; a
// context.Background() conjured mid-path silently detaches work from
// the caller's deadline.
//
//	ctxflow001  exported fault-loop/network entry point without a
//	            context.Context first parameter
//	ctxflow002  context.Background() in request-path code
//	ctxflow003  context.Context parameter not in first position
var CtxFlow = &Analyzer{
	Name:  "ctxflow",
	Doc:   "campaign/server/fleet entry points thread contexts, first",
	Codes: []string{"ctxflow001", "ctxflow002", "ctxflow003"},
	AppliesTo: inPaths(
		"merlin",
		"merlin/internal/campaign",
		"merlin/internal/server",
		"merlin/internal/fleet",
	),
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxParams(pass, info, fd)
		}
		// context.Background() anywhere in the package (including
		// function literals): each surviving site must carry a
		// //lint:allow ctxflow002 stating why it detaches (shutdown
		// drains, daemon-owned campaign roots).
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPkgFunc(info, call.Fun, "context", "Background") {
				pass.Reportf(call.Pos(), "ctxflow002",
					"context.Background() in %s: pass the caller's ctx down instead of detaching — Background survives DELETE /campaigns/{id} and coordinator drains", pass.Pkg.Path)
			}
			return true
		})
	}
}

func checkCtxParams(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	sig, _ := info.Defs[fd.Name].(*types.Func)
	if sig == nil {
		return
	}
	st, _ := sig.Type().(*types.Signature)
	if st == nil {
		return
	}
	ctxAt := -1
	for i := 0; i < st.Params().Len(); i++ {
		if isContextType(st.Params().At(i).Type()) {
			ctxAt = i
			break
		}
	}
	if ctxAt > 0 {
		pass.Reportf(fd.Name.Pos(), "ctxflow003",
			"%s takes context.Context as parameter %d: contexts go first so every call site reads the same way", fd.Name.Name, ctxAt+1)
	}
	if !fd.Name.IsExported() || ctxAt == 0 || fd.Body == nil {
		return
	}
	// Exported and context-free: fine for getters and pure transforms,
	// a finding when the body loops over the fault list or does HTTP.
	if reason := uncancellableWork(info, fd.Body); reason != "" {
		pass.Reportf(fd.Name.Pos(), "ctxflow001",
			"exported %s %s but has no context.Context first parameter: long work must be cancellable", fd.Name.Name, reason)
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// uncancellableWork scans a function body for work that must be
// cancellable: ranging over a []fault.Fault (an injection loop — the
// unit of campaign work) or issuing HTTP requests. It returns a short
// description of the first hit, or "".
func uncancellableWork(info *types.Info, body *ast.BlockStmt) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a stored callback is not this function's loop
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil && isFaultSlice(t) {
				reason = "loops over the fault list"
				return false
			}
		case *ast.CallExpr:
			if fn := funcObj(info, n.Fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
				switch fn.Name() {
				case "Get", "Post", "PostForm", "Head", "Do":
					reason = "performs HTTP I/O (http." + fn.Name() + " has no deadline without a request context)"
					return false
				}
			}
		}
		return true
	})
	return reason
}

// isFaultSlice reports whether t is []fault.Fault (possibly through a
// named slice type).
func isFaultSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "merlin/internal/fault" && obj.Name() == "Fault"
}
