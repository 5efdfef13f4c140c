// Package merlin is a Go reproduction of "MeRLiN: Exploiting Dynamic
// Instruction Behavior for Fast and Accurate Microarchitecture Level
// Reliability Assessment" (Kaliorakis, Gizopoulos, Canal, Gonzalez —
// ISCA 2017).
//
// It bundles a deterministic out-of-order core simulator with bit-accurate
// physical register file, store queue and L1D data arrays (the substrate
// the paper obtains from Gem5 + GeFIN), a statistical fault-injection
// campaign engine, and the MeRLiN methodology itself: ACE-like vulnerable
// interval pruning followed by (RIP, uPC, byte) fault grouping, so that
// only a handful of representatives per group are injected.
//
// The three phases of the paper's Fig 2 map to Session.Preprocess (golden
// run + ACE-like analysis + initial fault list), Session.Reduce (two-step
// grouping) and Session.Inject (representative injection + extrapolated
// classification). Session.Run chains all three.
//
// The primary API is the Session: merlin.Start(ctx, workload, opts...)
// validates a campaign built from functional options and returns a
// Session whose phase methods are context-aware and report typed Progress
// events.
package merlin

import (
	"fmt"
	"sort"
	"time"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/guestflow"
	"merlin/internal/lifetime"
	reduction "merlin/internal/merlin"
	"merlin/internal/sampling"
	"merlin/internal/store"
	"merlin/internal/workloads"
)

// Structure identifies an injection target.
type Structure = lifetime.StructureID

// The structures evaluated in the paper.
const (
	RF  = lifetime.StructRF
	SQ  = lifetime.StructSQ
	L1D = lifetime.StructL1D
	// NumStructures bounds the Structure space (valid targets are < it).
	NumStructures = lifetime.NumStructures
)

// AllStructures returns the paper's three injection targets in their
// canonical order (RF, SQ, L1D): the default target list of StartBatch.
func AllStructures() []Structure { return []Structure{RF, SQ, L1D} }

// Re-exported result types.
type (
	// Outcome is a fault-effect class (paper Table 2).
	Outcome = campaign.Outcome
	// Dist is a distribution over fault-effect classes.
	Dist = campaign.Dist
	// Fault is a single-bit transient fault.
	Fault = fault.Fault
	// Reduction is the output of MeRLiN's fault-list reduction.
	Reduction = reduction.Reduction
	// HomogeneityReport quantifies within-group effect uniformity.
	HomogeneityReport = reduction.HomogeneityReport
	// Strategy selects how injection runs reproduce the pre-fault
	// execution prefix (bit-identical outcomes, different wall-clock).
	Strategy = campaign.Strategy
	// Work counts what an injection phase executed (Serial, Clones,
	// CloneTime, SimCycles, HandOffs, FellBack, InterpInsts, DeadAtFlip,
	// Overwritten, SnapshotHit), summed over every shard wherever it ran.
	Work = campaign.Work
)

// Injection strategies: the reference and the fast path.
const (
	// StrategyReplay re-executes every injection from reset, in detail to
	// program end: the assumption-free reference.
	StrategyReplay = campaign.Replay
	// StrategyForked forks per-fault clones off a single golden sweep and
	// stops each run where it is decided: the default.
	StrategyForked = campaign.Forked
)

// ParseStrategy maps a flag value ("replay" or "forked",
// case-insensitively) to a Strategy.
func ParseStrategy(name string) (Strategy, error) { return campaign.ParseStrategy(name) }

// ParseStructure maps a structure name ("RF", "SQ", "L1D",
// case-insensitively) to a Structure. It is the single parser behind the
// CLI flags, daemon requests and experiment filters.
func ParseStructure(name string) (Structure, error) { return lifetime.ParseStructure(name) }

// ParseOutcome maps a fault-effect class name ("Masked", "SDC", ...,
// case-insensitively) to an Outcome.
func ParseOutcome(name string) (Outcome, error) { return campaign.ParseOutcome(name) }

// Fault-effect classes (paper Table 2, plus Unknown for truncated runs
// and Cancelled for faults a cancelled campaign never injected).
const (
	Masked    = campaign.Masked
	SDC       = campaign.SDC
	DUE       = campaign.DUE
	Timeout   = campaign.Timeout
	Crash     = campaign.Crash
	Assert    = campaign.Assert
	Unknown   = campaign.Unknown
	Cancelled = campaign.Cancelled
)

// RawFITPerBit is the raw failure rate the paper assumes (§4.4.3.3).
const RawFITPerBit = 0.01

// Cache is a golden-run artifact cache: an on-disk, content-addressed
// repository of Preprocess products (golden result, lifetime trace,
// ACE-like vulnerable intervals, checkpoint schedule) keyed by (workload,
// core config, cycle budget, structure). Campaigns that share those —
// regardless of fault count, seed, strategy, or grouping knobs — reuse one
// golden run across processes. Safe for concurrent use; share one Cache
// across all campaigns of a process (the daemon does).
type Cache = store.Store

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats = store.Stats

// OpenCache creates (if needed) and opens a golden-run artifact cache
// rooted at dir.
func OpenCache(dir string) (*Cache, error) { return store.Open(dir) }

// SnapshotCache is an in-memory, byte-budgeted LRU of checkpoint ladders
// (the frozen machine snapshots the forked strategy roots its sweep on and
// stops faulty runs at). Campaigns sharing one SnapshotCache and
// agreeing on (workload, CPU config, golden cycles) reuse one immutable
// ladder instead of each replaying the golden run to rebuild it — the
// in-memory complement of the on-disk artifact Cache, which cannot hold
// machine snapshots because they are not serializable. Safe for
// concurrent use; the daemon shares one across all campaigns.
type SnapshotCache = campaign.SnapshotCache

// SnapshotCacheStats is a point-in-time snapshot of snapshot-cache
// effectiveness.
type SnapshotCacheStats = campaign.SnapshotStats

// NewSnapshotCache returns a snapshot cache bounded to budgetBytes of
// (conservatively estimated) resident snapshot memory; <= 0 means the
// default budget (512 MB).
func NewSnapshotCache(budgetBytes int64) *SnapshotCache {
	return campaign.NewSnapshotCache(budgetBytes)
}

// Config is the resolved configuration of one MeRLiN campaign: what Start
// built from its options, with defaults applied, as Session.Config and
// Artifacts.Config return it.
type Config struct {
	// Workload names a registered benchmark (see Workloads).
	Workload string
	// CPU is the core configuration; zero value means the paper's
	// baseline (Table 1).
	CPU cpu.Config
	// Structure is the injection target.
	Structure Structure

	// Faults sets the initial statistical fault list size directly.
	// When 0, the size is derived from Confidence and ErrorMargin over
	// the structure's (bits x cycles) population, per Leveugle et al.
	Faults      int
	Confidence  float64 // default 0.998
	ErrorMargin float64 // default 0.0063 (the paper's 60K-fault setup)

	// Seed drives fault sampling (and nothing else; the simulator is
	// deterministic).
	Seed int64

	// RepsPerGroup >1 injects extra representatives per final group
	// (accuracy/cost ablation); 0 or 1 reproduces the paper.
	RepsPerGroup int
	// DisableByteGrouping turns off step 2 of the grouping algorithm
	// (ablation).
	DisableByteGrouping bool

	// Workers bounds injection parallelism; 0 = GOMAXPROCS.
	Workers int

	// Strategy selects the injection strategy: StrategyForked (what Start
	// resolves to without WithStrategy) or StrategyReplay. Both classify
	// every fault identically; they differ only in how much of the run is
	// simulated in detail.
	Strategy Strategy

	// StaticPrune enables the guestflow static pre-pruner: register-file
	// fault sites landing in statically must-dead windows (the governing
	// write's value is overwritten before any read on every path) are
	// classified masked before Reduce, skipping their dynamic interval
	// lookups. Every statically pruned fault is cross-verified against the
	// dynamic analysis — a disagreement aborts the campaign loudly — so
	// reports stay bit-identical to unpruned runs. Structures other than
	// RF ignore the option (their entries hold no architectural registers).
	StaticPrune bool

	// Cache, when non-nil, short-circuits Preprocess: on a hit the golden
	// run and ACE-like analysis are loaded instead of simulated (the
	// campaign's outcomes are bit-identical either way); on a miss they
	// run once and are stored for every later campaign on the same
	// (Workload, CPU) pair. Open one with OpenCache.
	Cache *Cache

	// Snapshots, when non-nil, shares checkpoint ladders across campaigns:
	// the forked strategy serves its frozen machine snapshots from it
	// instead of rebuilding them per campaign. Create
	// one with NewSnapshotCache; the daemon wires a process-wide instance.
	Snapshots *SnapshotCache
}

// fillDefaults replaces zero knobs with their documented defaults. The
// strategy's zero value is a strategy (Replay), so its default is set
// before the options apply (buildSessionConfig), not here.
func (c Config) fillDefaults() Config {
	if c.CPU.PhysRegs == 0 {
		c.CPU = cpu.DefaultConfig()
	}
	if c.Confidence == 0 {
		c.Confidence = sampling.Baseline.Confidence
	}
	if c.ErrorMargin == 0 {
		c.ErrorMargin = sampling.Baseline.ErrorMargin
	}
	if c.RepsPerGroup == 0 {
		c.RepsPerGroup = 1
	}
	return c
}

// validate rejects knob values the pipeline would otherwise silently
// misread (applied after fillDefaults, so zeros have already been replaced
// by documented defaults and anything invalid left is a caller error).
// Campaign requests arriving over the daemon's HTTP API funnel through
// this same check.
func (c Config) validate() error {
	switch {
	case c.Structure >= lifetime.NumStructures:
		return fmt.Errorf("merlin: unknown structure %d", c.Structure)
	case c.Faults < 0:
		return fmt.Errorf("merlin: Faults is %d; want >= 0 (0 = derive from Confidence/ErrorMargin)", c.Faults)
	case c.Workers < 0:
		return fmt.Errorf("merlin: Workers is %d; want >= 0 (0 = all host cores)", c.Workers)
	case c.RepsPerGroup < 0:
		return fmt.Errorf("merlin: RepsPerGroup is %d; want >= 0 (0 = the paper's 1)", c.RepsPerGroup)
	case c.Confidence <= 0 || c.Confidence >= 1:
		return fmt.Errorf("merlin: Confidence %v outside (0, 1)", c.Confidence)
	case c.ErrorMargin <= 0 || c.ErrorMargin >= 1:
		return fmt.Errorf("merlin: ErrorMargin %v outside (0, 1)", c.ErrorMargin)
	}
	return nil
}

// Artifacts carries the intermediate products of the pipeline between
// phases, mirroring the repositories of the paper's Fig 2.
type Artifacts struct {
	// Config is the campaign configuration after defaults were applied.
	Config Config
	// Runner executes the injection runs of phase 3.
	Runner *campaign.Runner
	// Golden is the fault-free reference run (result + lifetime tracer).
	Golden *campaign.Golden
	// Analysis holds the structure's ACE-like vulnerable intervals.
	Analysis *lifetime.Analysis
	// Faults is the initial statistical fault list.
	Faults []fault.Fault
	// Red is the fault-list reduction; nil until Reduce runs.
	Red *reduction.Reduction

	// Premasked marks the faults the guestflow static pre-pruner proved
	// masked (nil unless Config.StaticPrune ran); StaticPruned is its
	// true-count, surfaced through Progress and the Report.
	Premasked    []bool
	StaticPruned int

	// CacheHit reports that Golden and Analysis were loaded from
	// Config.Cache instead of simulated: Preprocess skipped the golden
	// run entirely.
	CacheHit bool
	// CacheErr records a non-fatal failure to persist the artifacts on a
	// cache miss (the campaign itself is unaffected).
	CacheErr error
}

// Workloads lists the registered benchmark names for a suite ("mibench",
// "spec", or "" for all).
func Workloads(suite string) []string { return workloads.Names(suite) }

// preprocessStructures is phase 1: the single fault-free profiling run (or
// one artifact-cache load, when cfg.Cache already holds the products of the
// same workload, core config and structures) tracing every listed
// structure, plus the initial statistical fault lists, yielding one
// *Artifacts per structure — all sharing the same Runner (and therefore
// clone pool and snapshot source) and the same Golden. A single-structure
// campaign passes its one target; a batch passes its whole list and pays
// for exactly one golden run.
//
// cfg must already have defaults applied and be validated; structures must
// be non-empty and duplicate-free (Start and StartBatch guarantee both).
func preprocessStructures(cfg Config, structures []Structure) ([]*Artifacts, error) {
	runner, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}

	key := store.NewKey(cfg.Workload, cfg.CPU, runner.GoldenBudget, structures...)
	if cfg.Cache != nil {
		if art, ok := cfg.Cache.Get(key); ok {
			return rehydrateArtifacts(cfg, runner, structures, art)
		}
	}

	golden, err := runner.RunGolden(structures...)
	if err != nil {
		return nil, err
	}

	out := make([]*Artifacts, len(structures))
	for i, s := range structures {
		out[i] = newArtifacts(cfg, runner, golden, golden.Tracer.Analysis(s), false)
	}
	if cfg.Cache != nil {
		traces := make([]store.StructureTrace, len(out))
		for i, a := range out {
			traces[i] = store.StructureTrace{
				Structure:  a.Analysis.Structure,
				Entries:    a.Analysis.Entries,
				EntryBytes: a.Analysis.EntryBytes,
				Events:     golden.Tracer.Log(a.Analysis.Structure).Events,
				Intervals:  a.Analysis.Intervals,
			}
		}
		// Artifact traces are stored in canonical (ascending StructureID)
		// order, matching the key's canonical structure set.
		sort.Slice(traces, func(i, j int) bool { return traces[i].Structure < traces[j].Structure })
		cacheErr := cfg.Cache.Put(key, &store.Artifact{
			Workload:         cfg.Workload,
			Structures:       traces,
			Golden:           golden.Result,
			Branches:         golden.Tracer.Branches,
			CheckpointCycles: campaign.CheckpointSchedule(campaign.ForkSyncPoints, golden.Result.Cycles),
		})
		for _, a := range out {
			a.CacheErr = cacheErr
		}
	}
	return out, nil
}

// newArtifacts assembles one structure's Preprocess products — the one
// place an *Artifacts is built, so a cache hit starts the same campaign a
// miss does. analysis carries the structure and its geometry. The fault
// list is regenerated rather than cached: sampling is deterministic in
// (structure geometry, cycles, seed), and different campaigns over one
// artifact want different lists.
func newArtifacts(cfg Config, runner *campaign.Runner, golden *campaign.Golden, analysis *lifetime.Analysis, hit bool) *Artifacts {
	cfg.Structure = analysis.Structure
	return &Artifacts{
		Config:   cfg,
		Runner:   runner,
		Golden:   golden,
		Analysis: analysis,
		Faults:   sampleFaults(cfg, analysis.Entries, analysis.EntryBytes*8, analysis.Cycles),
		CacheHit: hit,
	}
}

// newRunner builds the injection Runner of a campaign: the registered
// workload's program on cfg's core, cfg's worker bound and snapshot source.
// The coordinator's Preprocess and a fleet worker's shard executor both
// start here.
func newRunner(cfg Config) (*campaign.Runner, error) {
	w, err := workloads.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}
	runner := campaign.NewRunner(campaign.Target{Cfg: cfg.CPU, Prog: w.Program()})
	runner.Workers = cfg.Workers
	runner.Snapshots = cfg.Snapshots
	runner.FreezeLadder = cfg.Strategy == StrategyForked
	return runner, nil
}

// rehydrateArtifacts rebuilds the per-structure Preprocess products from a
// cached artifact.
func rehydrateArtifacts(cfg Config, runner *campaign.Runner, structures []Structure, art *store.Artifact) ([]*Artifacts, error) {
	var logs [lifetime.NumStructures]*lifetime.Log
	for _, s := range structures {
		tr, ok := art.Trace(s)
		if !ok {
			// Get verified the structure set, so this is unreachable; fail
			// loudly rather than serving a half-rehydrated campaign.
			return nil, fmt.Errorf("merlin: cached artifact is missing the %v trace", s)
		}
		logs[s] = &lifetime.Log{Events: tr.Events}
	}
	golden := &campaign.Golden{
		Result: art.Golden,
		Tracer: lifetime.RehydrateTracerLogs(logs, art.Branches, art.Golden.Cycles),
	}
	out := make([]*Artifacts, len(structures))
	for i, s := range structures {
		analysis, _ := art.Analysis(s)
		out[i] = newArtifacts(cfg, runner, golden, analysis, true)
	}
	return out, nil
}

// sampleFaults draws the initial statistical fault list for a structure of
// the given geometry, deriving the size from (Confidence, ErrorMargin)
// when Faults is 0.
func sampleFaults(cfg Config, entries, entryBits int, cycles uint64) []fault.Fault {
	n := cfg.Faults
	if n == 0 {
		p := sampling.Params{Confidence: cfg.Confidence, ErrorMargin: cfg.ErrorMargin}
		n = p.SampleSize(sampling.Population(entries, entryBits, cycles))
	}
	return sampling.Generate(cfg.Structure, entries, entryBits, cycles, n, cfg.Seed)
}

// Reduce runs phase 2: ACE-like pruning plus the two-step grouping
// algorithm, populating a.Red.
func (a *Artifacts) Reduce() *reduction.Reduction {
	opts := reduction.Options{
		RepsPerGroup: a.Config.RepsPerGroup,
		ByteGrouping: !a.Config.DisableByteGrouping,
		Premasked:    a.Premasked,
	}
	a.Red = reduction.Reduce(a.Analysis, a.Faults, opts)
	return a.Red
}

// staticPrune runs the guestflow static pre-pruner over the campaign's
// fault list, populating Premasked/StaticPruned. Only register-file
// campaigns carry architectural values, so other structures are a no-op.
// Before any verdict is used, every statically pruned fault is
// cross-verified against the dynamic ACE-like analysis: a fault the
// static analysis calls must-dead but the dynamic analysis finds inside a
// vulnerable interval means one of the two engines is wrong, and the
// campaign fails loudly instead of risking a silently different report.
func (a *Artifacts) staticPrune() error {
	if a.Config.Structure != RF {
		return nil
	}
	log := a.Golden.Tracer.Log(lifetime.StructRF)
	if log == nil {
		return fmt.Errorf("merlin: static prune requested but the golden run carries no RF event log")
	}
	g := guestflow.Analyze(a.Runner.Prog)
	premasked, _ := guestflow.PruneRF(g, log, a.Faults)
	for i, pm := range premasked {
		if !pm {
			continue
		}
		f := a.Faults[i]
		if id, ok := a.Analysis.Find(f.Entry, f.Byte(), f.Cycle); ok {
			iv := a.Analysis.Intervals[id]
			return fmt.Errorf("merlin: static/dynamic liveness disagreement on %s fault %d (entry=%d bit=%d cycle=%d): "+
				"statically must-dead, but dynamically vulnerable in (%d,%d] read by rip=%d upc=%d — "+
				"one of internal/guestflow or internal/lifetime is wrong; run `merlin analyze -crosscheck -workload %s`",
				a.Config.Structure, i, f.Entry, f.Bit, f.Cycle, iv.Start, iv.End, iv.RIP, iv.UPC, a.Config.Workload)
		}
	}
	a.Premasked = premasked
	a.StaticPruned = 0
	for _, pm := range premasked {
		if pm {
			a.StaticPruned++
		}
	}
	return nil
}

// plan is the campaign's injection plan: the configured strategy plus the
// per-fault hook (nil for none).
func (c Config) plan(onOutcome func(int, fault.Fault, campaign.Outcome)) campaign.Plan {
	return campaign.Plan{Strategy: c.Strategy, OnOutcome: onOutcome}
}

// structureBits is the storage the campaign's structure holds, entries x
// entry width: what AVF scales to a FIT rate.
func (a *Artifacts) structureBits() int {
	entries, entryBits := a.Config.CPU.StructureGeometry(a.Config.Structure)
	return entries * entryBits
}

// reportFrom assembles the campaign Report from a reduction and the
// Result the session's executor returned for the reduced list — one
// Runner.Run by default; under the daemon the ledger's merge of per-shard
// outcome streams and resumed checkpoints. extrapolate selects the
// complete-campaign view (group extrapolation over the full initial list);
// false leaves Dist as the raw distribution of the classified
// representatives, the partial view of a cancelled or interrupted campaign.
func (a *Artifacts) reportFrom(res *campaign.Result, extrapolate bool) *Report {
	bits := a.structureBits()
	dist := res.Dist
	if extrapolate {
		dist = a.Red.Extrapolate(res.Outcomes)
	}
	return &Report{
		Workload:      a.Config.Workload,
		Structure:     a.Config.Structure,
		GoldenCycles:  a.Golden.Result.Cycles,
		InitialFaults: len(a.Faults),
		ACEMasked:     a.Red.ACEMasked,
		StaticPruned:  a.StaticPruned,
		PostACE:       len(a.Red.HitFaults),
		Injected:      res.Injected,
		Cancelled:     res.Cancelled,
		StepOneGroups: a.Red.StepOneGroups,
		FinalGroups:   len(a.Red.Groups),
		ACESpeedup:    a.Red.ACESpeedup(),
		FinalSpeedup:  a.Red.FinalSpeedup(),
		Dist:          dist,
		AVF:           dist.AVF(),
		FIT:           dist.FIT(bits, RawFITPerBit),
		ACELikeAVF:    a.Analysis.AVF(),
		ACELikeFIT:    a.Analysis.AVF() * RawFITPerBit * float64(bits),
		RepOutcomes:   res.Outcomes,
		Wall:          res.Wall,
		CacheHit:      a.CacheHit,
		Work:          res.Work,
		CyclesPerSec:  res.CyclesPerSec(),
	}
}

// baselineFrom assembles the comprehensive campaign's report from the
// Result the session's executor returned for the whole initial list.
func (a *Artifacts) baselineFrom(res *campaign.Result) *BaselineReport {
	return &BaselineReport{
		Workload:     a.Config.Workload,
		Structure:    a.Config.Structure,
		GoldenCycles: a.Golden.Result.Cycles,
		Faults:       len(a.Faults),
		Cancelled:    res.Cancelled,
		Outcomes:     res.Outcomes,
		Dist:         res.Dist,
		AVF:          res.Dist.AVF(),
		FIT:          res.Dist.FIT(a.structureBits(), RawFITPerBit),
		Wall:         res.Wall,
		Work:         res.Work,
		CyclesPerSec: res.CyclesPerSec(),
	}
}

// Report is the outcome of one MeRLiN campaign.
type Report struct {
	// Workload and Structure identify the campaign.
	Workload  string
	Structure Structure
	// GoldenCycles is the fault-free run length in cycles.
	GoldenCycles uint64
	// InitialFaults is the statistical fault list size before reduction.
	InitialFaults int
	// ACEMasked counts faults pruned as provably masked by the ACE-like
	// analysis (phase 1).
	ACEMasked int
	// StaticPruned counts the ACEMasked faults classified by the guestflow
	// static pre-pruner without a dynamic interval lookup (0 unless the
	// campaign ran with WithStaticPrune; always a subset of ACEMasked).
	StaticPruned int
	// PostACE counts faults surviving the ACE-like pruning.
	PostACE int
	// Injected counts the group representatives actually injected.
	Injected int
	// Cancelled counts representatives a cancelled campaign never
	// injected (0 for campaigns that ran to completion). When non-zero,
	// Dist is the raw distribution of the classified representatives —
	// not an extrapolation — and the corresponding RepOutcomes entries
	// carry the Cancelled sentinel.
	Cancelled int
	// StepOneGroups and FinalGroups count groups after (RIP, uPC)
	// grouping and after byte sub-grouping respectively.
	StepOneGroups int
	FinalGroups   int
	// ACESpeedup and FinalSpeedup are injection-count reduction factors
	// after phase 1 alone and after both phases (the paper's Figs 8-10).
	ACESpeedup   float64
	FinalSpeedup float64
	// Dist is the extrapolated fault-effect distribution over the full
	// initial fault list.
	Dist Dist
	// AVF and FIT are the injection-based vulnerability estimates; the
	// ACELike variants are the analysis-only upper bounds (§4.4.3.3).
	AVF        float64
	FIT        float64
	ACELikeAVF float64
	ACELikeFIT float64
	// RepOutcomes are the representatives' raw outcomes, in reduced-list
	// order.
	RepOutcomes []Outcome
	// Wall is the injection phase's parallel wall-clock.
	Wall time.Duration
	// CacheHit reports that Preprocess was served from the golden-run
	// artifact cache (no golden run was simulated for this campaign).
	CacheHit bool
	// Work counts what the injection phase executed — Serial (summed
	// per-injection, single-machine-equivalent time), Clones and CloneTime
	// (machine snapshots taken), SimCycles (detailed cycles: shared pre-fault
	// work plus every faulty continuation up to where it ended or was handed
	// off), HandOffs, FellBack and InterpInsts (runs the architectural
	// interpreter finished, hand-off attempts that returned to the detailed
	// core, instructions interpreted), DeadAtFlip (faults classified Masked
	// at the fork because the flip landed in dead storage), Overwritten
	// (Masked as the flipped entry was overwritten unread) and SnapshotHit
	// (the checkpoint ladder came from a shared SnapshotCache; always false
	// for StrategyReplay). A daemon sums it over every shard of the
	// campaign, in-process and remote alike.
	Work
	// CyclesPerSec divides SimCycles by Wall — the campaign's effective
	// simulation throughput across all workers.
	CyclesPerSec float64
}

// String renders a one-campaign summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"%s/%s: %d faults -> ACE-like %d masked (%.1fx) -> %d groups -> %d injected (%.1fx total)\n"+
			"  dist: %v\n  AVF %.4f (ACE-like bound %.4f)  FIT %.3f (ACE-like %.3f)\n"+
			"  injection: %s",
		r.Workload, r.Structure, r.InitialFaults, r.ACEMasked, r.ACESpeedup,
		r.FinalGroups, r.Injected, r.FinalSpeedup,
		r.Dist, r.AVF, r.ACELikeAVF, r.FIT, r.ACELikeFIT,
		workNote(r.Work))
}

// workNote renders what an injection phase executed: the one formatter
// behind Report.String and both phase-done messages. The hand-off counters
// appear once a run tried a hand-off; a Replay campaign's ladder has no rung
// past reset, so it never tries.
func workNote(w Work) string {
	s := fmt.Sprintf("%d detailed cycles, %d clones", w.SimCycles, w.Clones)
	if w.DeadAtFlip > 0 {
		s += fmt.Sprintf(", %d dead at the flip", w.DeadAtFlip)
	}
	if w.Overwritten > 0 {
		s += fmt.Sprintf(", %d overwritten before a read", w.Overwritten)
	}
	if w.SnapshotHit {
		s += ", snapshot cache hit"
	}
	if w.HandOffs+w.FellBack > 0 {
		s += fmt.Sprintf(", %d runs handed off to the interpreter (%d attempts fell back, %d instructions interpreted)",
			w.HandOffs, w.FellBack, w.InterpInsts)
	}
	return s
}

// BaselineReport is the outcome of a comprehensive campaign.
type BaselineReport struct {
	// Workload and Structure identify the campaign.
	Workload  string
	Structure Structure
	// GoldenCycles is the fault-free run length in cycles.
	GoldenCycles uint64
	// Faults is the number of injections (the whole initial list).
	Faults int
	// Cancelled counts faults a cancelled campaign never injected; their
	// Outcomes entries carry the Cancelled sentinel and Dist excludes
	// them.
	Cancelled int
	// Outcomes are the per-fault classifications, in fault-list order.
	Outcomes []Outcome
	// Dist aggregates Outcomes; AVF and FIT derive from it.
	Dist Dist
	AVF  float64
	FIT  float64
	// Wall, Work and CyclesPerSec mirror Report's injection-phase
	// performance counters.
	Wall time.Duration
	Work
	CyclesPerSec float64
}
