package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// DetRand enforces that report-affecting packages draw randomness only
// from explicit seeded state. MeRLiN's pruned-campaign-equals-full-
// injection guarantee, replay/forked/fleet bit-identity and the
// sha256 artifact keys all assume a campaign is a pure function of
// (workload, config, seed); one rand.Intn on the shared global source
// makes the fault list depend on whatever else ran in the process.
//
//	detrand001  package-level math/rand function (global source)
//	detrand002  crypto/rand import (hardware entropy is never replayable)
//	detrand003  source seeded from the wall clock
var DetRand = &Analyzer{
	Name:  "detrand",
	Doc:   "no global or unseeded randomness in report-affecting packages",
	Codes: []string{"detrand001", "detrand002", "detrand003"},
	Scope: reportAffecting,
	Run:   runDetRand,
}

// mathRandConstructors are the explicit-source constructors: building a
// seeded source is exactly the sanctioned pattern (sampling and relyzer
// do rand.New(rand.NewSource(seed))), so only consuming functions on
// the package-level source are findings.
var mathRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDetRand(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, imp := range file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "crypto/rand" {
				pass.Reportf(imp.Pos(), "detrand002",
					"crypto/rand imported in report-affecting package %s: hardware entropy can never be replayed; derive randomness from the campaign seed", pass.Pkg.Path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, _ := info.Uses[n.Sel].(*types.Func)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				p := fn.Pkg().Path()
				if (p == "math/rand" || p == "math/rand/v2") && isPackageLevel(fn) && !mathRandConstructors[fn.Name()] {
					pass.Reportf(n.Pos(), "detrand001",
						"rand.%s uses the global math/rand source: campaigns must be a pure function of the seed — use rand.New(rand.NewSource(seed)) or the package's splitmix64 state", fn.Name())
				}
			case *ast.CallExpr:
				fn := funcObj(info, n.Fun)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				p := fn.Pkg().Path()
				if (p == "math/rand" || p == "math/rand/v2") && mathRandConstructors[fn.Name()] && seededFromClock(info, n) {
					pass.Reportf(n.Pos(), "detrand003",
						"rand.%s seeded from the wall clock: the seed must come from campaign configuration so runs replay bit-identically", fn.Name())
				}
			}
			return true
		})
	}
}

// isPackageLevel reports whether fn is a package-level function (not a
// method): methods on an explicit *rand.Rand are the sanctioned form.
func isPackageLevel(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() == nil
}

// seededFromClock reports whether any argument of call reaches
// time.Now (directly or through a call chain in the same expression,
// e.g. time.Now().UnixNano()). Nested rand constructors are not
// descended into — rand.New(rand.NewSource(clock)) charges the inner
// call, once.
func seededFromClock(info *types.Info, call *ast.CallExpr) bool {
	clock := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if fn := funcObj(info, inner.Fun); fn != nil && fn.Pkg() != nil &&
					(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") &&
					mathRandConstructors[fn.Name()] {
					return false
				}
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if fn, _ := info.Uses[sel.Sel].(*types.Func); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "time" && strings.HasPrefix(fn.Name(), "Now") {
					clock = true
					return false
				}
			}
			return true
		})
	}
	return clock
}
