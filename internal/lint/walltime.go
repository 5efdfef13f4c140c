package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// WallTime forbids wall-clock reads in simulation and campaign
// packages. Simulated time is cycle counts; a time.Now that influences
// control flow or serialized state makes two runs of the same campaign
// diverge, which breaks the differential oracles, the fleet's
// bit-identical merged reports and artifact-cache key stability.
//
// Deliberate wall-clock *metrics* — Result.Wall/Serial stamping in the
// schedulers, the clone-cost meter, the fleet's heartbeat/TTL liveness
// clock — are enumerated in a built-in allowlist with a reason each;
// the driver prints every allowlisted hit so the exemption set stays
// visible. A new metric site needs an allowlist entry here; there is no
// other way to exempt one.
//
// The allowlist itself is checked for rot: an entry naming a function
// with no wall-clock read left in it is a finding, because a stale
// exemption silently pre-approves the next wall-clock read someone adds
// under that name.
//
//	walltime001  time.Now/Since/Until outside the allowlist
//	walltime002  built-in allowlist entry matching no wall-clock site
var WallTime = &Analyzer{
	Name:  "walltime",
	Doc:   "no wall-clock reads outside allowlisted metric sites",
	Codes: []string{"walltime001", "walltime002"},
	Scope: reportAffecting,
	Run:   runWallTime,
}

// wallClockFuncs are the time package reads that anchor to the wall.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// wallClockAllow is the built-in allowlist: (package, enclosing
// function) -> reason. These are the wall-clock-*metric* sites — they
// stamp durations into fields that report bit-identity explicitly
// excludes (Report.Wall et al.) or drive liveness TTLs, never simulated
// state.
var wallClockAllow = map[string]map[string]string{
	"merlin/internal/campaign": {
		"runMetrics.clone": "clone-cost metric (Result.CloneTime); never touches simulated state",
		"Runner.Run":       "Result.Wall/Serial wall-clock metric stamping",
	},
	"merlin": {
		"ledgerInjector": "merged Result.Wall metric stamping",
		"Batch.Run":      "BatchReport.Wall metric stamping",
	},
	// The chaos harness is operator tooling over the service's HTTP
	// surface: its wall-clock reads are suite timing metrics and poll
	// deadlines, never simulated or merged state.
	"merlin/internal/chaos/suite": {
		"Run":               "chaos suite wall-clock metrics (Result timing fields)",
		"chaosAwait":        "chaos campaign poll deadline",
		"chaosAwaitWorkers": "chaos fleet join poll deadline",
	},
	"merlin/internal/fleet": {
		"NewPool": "heartbeat/TTL liveness clock (injected so tests fake it)",
	},
	// The walltime fixture exercises the built-in allowlist path; the
	// merlinvet.test prefix can never collide with a module package. The
	// second entry is deliberately stale so the fixture also exercises
	// the walltime002 rot check.
	"merlinvet.test/walltime": {
		"AllowlistedMetric":      "fixture: built-in allowlist entry exercised by the lint tests",
		"StaleEntryNeverMatches": "fixture: stale allowlist entry the rot check must flag",
	},
}

func runWallTime(pass *Pass) {
	info := pass.Pkg.Info
	allow := wallClockAllow[pass.Pkg.Path]
	matched := make(map[string]bool, len(allow))
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
				return true
			}
			where := enclosingFuncName(file, sel.Pos())
			if reason, ok := allow[where]; ok {
				matched[where] = true
				pass.Allowlisted(sel.Pos(), "walltime001", where, reason)
				return true
			}
			pass.Reportf(sel.Pos(), "walltime001",
				"time.%s in %s (%s): simulation and campaign state must be wall-clock free — metric sites belong on the walltime allowlist with a reason", fn.Name(), where, pass.Pkg.Path)
			return true
		})
	}
	// Allowlist rot: an entry that matched nothing pre-approves whatever
	// wall-clock read is added under that function name next. Flag it at
	// the package clause so the entry gets deleted with the code it
	// described.
	if len(pass.Pkg.Files) == 0 {
		return
	}
	stale := make([]string, 0, len(allow))
	for where := range allow {
		if !matched[where] {
			stale = append(stale, where)
		}
	}
	sort.Strings(stale)
	for _, where := range stale {
		pass.Reportf(pass.Pkg.Files[0].Name.Pos(), "walltime002",
			"stale walltime allowlist entry %q: no wall-clock read in %s matches it — delete the entry, allowlist rot hides future regressions", where, pass.Pkg.Path)
	}
}
