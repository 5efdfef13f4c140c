package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"merlin"
)

type kind int

const (
	library kind = iota // merlin.Start + Session phases in this process
	service             // in-process NewServer behind a loopback listener, driven over HTTP
)

type cacheMode int

const (
	noCache   cacheMode = iota
	coldCache           // a fresh empty artifact cache per campaign: miss + Put
	warmCache           // one artifact cache, warmed in set-up: hit
)

// workload is one row of the descriptor table: what a campaign of it is
// and how a run loops over campaigns. The table owns selection and order;
// there are no per-workload flags.
type workload struct {
	Name string
	Why  string
	Kind kind

	// The campaign spec.
	Workload  string
	Structure merlin.Structure
	Faults    int
	Strategy  merlin.Strategy

	// Lists is how many distinct fault lists a run cycles through:
	// campaign i samples its list with WithSeed(subSeed(seed, i%Lists)).
	// One list per run would make every timing depend on which faults the
	// seed happened to draw (±10% on the forked workloads); cycling a few
	// averages that out while keeping every report pinnable.
	Lists int

	Cache   cacheMode // library only
	Audit   bool      // library only: Session.Run, then Session.Baseline on the same session
	Clients int       // concurrent closed-loop clients (1 = sequential campaigns)

	// Service only: Workers fleet workers join the coordinator (0 = a plain
	// daemon), and every BatchEvery-th fault list is submitted as the
	// three-structure batch of http.go instead (0 = never).
	Workers    int
	BatchEvery int
}

// workloads is the benchmark. Sizes are chosen so a campaign takes a few
// tenths of a second on two cores and a ten-second run measures 25 or more;
// programs and fault counts are the ones whose cost varies least with the
// fault list drawn (see README.md, "Sizing").
var workloads = []workload{
	{
		Name: "lib_forked_l1d", Kind: library, Lists: 16, Clients: 1,
		Workload: "djpeg", Structure: merlin.L1D, Faults: 20000, Strategy: merlin.StrategyForked,
		Why: "djpeg/L1D/20000/forked, no caches: >=95% of wall is Inject (cpu stepping, clone pool, ladder, early-exit classify), where a simulator speed-up must show",
	},
	{
		Name: "lib_replay_rf", Kind: library, Lists: 32, Clients: 1,
		Workload: "sha", Structure: merlin.RF, Faults: 20000, Strategy: merlin.StrategyReplay,
		Why: "sha/RF/20000/replay, no caches: from-reset replay uses no ladder and no early exit, so a cpu speed-up shows and a snapshot or early-exit change predicts no change",
	},
	{
		Name: "lib_trace_cold_rf", Kind: library, Lists: 8, Clients: 1, Cache: coldCache,
		Workload: "gcc", Structure: merlin.RF, Faults: 2000, Strategy: merlin.StrategyForked,
		Why: "gcc/RF/2000/forked, fresh artifact cache per campaign (miss + Put): RF-traced golden run, lifetime.Build and artifact encode+write make Preprocess over half of wall",
	},
	{
		Name: "lib_trace_warm_rf", Kind: library, Lists: 8, Clients: 1, Cache: warmCache,
		Workload: "gcc", Structure: merlin.RF, Faults: 2000, Strategy: merlin.StrategyForked,
		Why: "same spec on a cache warmed in set-up (hit: read+decode+rehydrate, golden skipped): an artifact-format change shows as opposite moves on the cold/warm pair",
	},
	{
		Name: "daemon_burst", Kind: service, Lists: 8, Clients: 2, BatchEvery: 4,
		Workload: "sha", Structure: merlin.RF, Faults: 500, Strategy: merlin.StrategyForked,
		Why: "2 closed-loop HTTP clients on a warm daemon; 3 of 4 ops sha/RF/500, 1 of 4 a djpeg RF+SQ+L1D/2000 batch: HTTP, events, artifact Get and registry fsync dominate, not simulation",
	},
	{
		Name: "fleet_2w", Kind: service, Lists: 4, Clients: 1, Workers: 2,
		Workload: "djpeg", Structure: merlin.L1D, Faults: 20000, Strategy: merlin.StrategyForked,
		Why: "the lib_forked_l1d campaign submitted to a coordinator with 2 workers: the difference is sharding, wire, ledger merge and checkpointing; a cpu-only change shows proportionally",
	},
	{
		Name: "audit_baseline", Kind: library, Lists: 16, Clients: 1, Audit: true,
		Workload: "sha", Structure: merlin.RF, Faults: 2000, Strategy: merlin.StrategyForked,
		Why: "sha/RF/2000/forked Session.Run then Session.Baseline on one session: carries the accuracy metrics; 2000 short, mostly masked injections make per-fault clone/classify cost dominate",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives fault list list's sampling seed from the run's seed. The
// run seed reaches the program only through these values.
func subSeed(seed int64, list int) int64 { return seed*1000 + int64(list) }

// smokeFaults caps the fault-list size of the tier-1 smoke test.
const smokeFaults = 200

// runOpts are the knobs of one run, shared by every workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool   // bench_test.go: cut-down fault counts, one campaign, one set-up
	outDir  string // trace files and scratch directories
}

// faults scales a fault-list size down for the smoke test.
func (o runOpts) faults(n int) int {
	if o.smoke {
		return min(n, smokeFaults)
	}
	return n
}

// options is the library form of the workload's spec for one fault list.
func (w *workload) options(o runOpts, list int) []merlin.Option {
	return []merlin.Option{
		merlin.WithStructure(w.Structure),
		merlin.WithFaults(o.faults(w.Faults)),
		merlin.WithStrategy(w.Strategy),
		merlin.WithSeed(subSeed(o.seed, list)),
	}
}

// opResult is one finished campaign (or batch) of a run.
type opResult struct {
	list   int
	wall   time.Duration // Start/POST to verified-ready report
	faults int           // sum of InitialFaults over the op's reports
	pins   []pin
	err    error // errored, refused, timed out; pins are checked by the caller
	shed   bool  // refused with 429

	report   *merlin.Report         // nil for a batch
	baseline *merlin.BaselineReport // audit workloads only
	http     *httpTimes             // daemon and fleet workloads only
}

// env is one set-up instance of a workload, warmed and ready to measure.
type env interface {
	// op runs campaign i to a report. With a tracer it records the
	// campaign's spans; without, it takes the plain untraced path.
	op(ctx context.Context, i int, tr *tracer) opResult
	// counters reads the store-layer hit counts accumulated so far.
	counters(ctx context.Context) (cacheHits, snapshotHits float64)
	close() error
}

// setUp brings workload w up in a scratch directory under o.outDir. The
// caller runs the warm-up campaigns.
func setUp(ctx context.Context, w *workload, o runOpts) (env, error) {
	dir, err := os.MkdirTemp(o.outDir, "env-")
	if err != nil {
		return nil, err
	}
	if w.Kind == library {
		return newLibEnv(w, o, dir)
	}
	return newHTTPEnv(ctx, w, o, dir)
}

// libEnv runs campaigns through the public Session API in this process.
type libEnv struct {
	w     *workload
	o     runOpts
	dir   string
	cache *merlin.Cache // warmCache only
}

func newLibEnv(w *workload, o runOpts, dir string) (*libEnv, error) {
	e := &libEnv{w: w, o: o, dir: dir}
	if w.Cache == warmCache {
		c, err := merlin.OpenCache(filepath.Join(dir, "cache"))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		e.cache = c
	}
	return e, nil
}

func (e *libEnv) counters(context.Context) (float64, float64) {
	if e.cache == nil {
		return 0, 0
	}
	return float64(e.cache.Stats().Hits), 0
}

func (e *libEnv) close() error { return os.RemoveAll(e.dir) }

func (e *libEnv) op(ctx context.Context, i int, tr *tracer) opResult {
	res := opResult{list: i % e.w.Lists}
	opts := e.w.options(e.o, res.list)
	switch e.w.Cache {
	case coldCache:
		dir, err := os.MkdirTemp(e.dir, "cold-")
		if err != nil {
			res.err = err
			return res
		}
		defer os.RemoveAll(dir)
		c, err := merlin.OpenCache(dir)
		if err != nil {
			res.err = err
			return res
		}
		opts = append(opts, merlin.WithCache(c))
	case warmCache:
		opts = append(opts, merlin.WithCache(e.cache))
	}

	names := []string{"start"}
	marks := []time.Time{time.Now()}
	mark := func(next string) {
		marks = append(marks, time.Now())
		names = append(names, next)
	}
	s, err := merlin.Start(ctx, e.w.Workload, opts...)
	if err == nil && tr != nil {
		// The traced path makes the phase calls Session.Run would make,
		// one by one, so each gets a span.
		mark("preprocess")
		if err = s.Preprocess(ctx); err == nil {
			mark("reduce")
			_, err = s.Reduce()
		}
	}
	if err == nil {
		mark("inject")
		res.report, err = s.Run(ctx)
	}
	if err == nil && e.w.Audit {
		mark("baseline")
		res.baseline, err = s.Baseline(ctx)
	}
	if err != nil {
		res.err = err
		return res
	}
	mark("verify")
	res.pins = []pin{pinOf(res.report)}
	res.faults = res.report.InitialFaults
	end := time.Now()
	res.wall = end.Sub(marks[0])
	if tr != nil {
		root := tr.add("campaign", -1, i, marks[0], end)
		tr.phases(root, i, names, append(marks, end))
	}
	return res
}
