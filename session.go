package merlin

// This file is the public campaign API: merlin.Start builds a Session from
// functional options, and the Session exposes the pipeline phases as
// context-aware, cancellable methods with one progress stream, whose
// records are the campaign service's wire events.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/server"
	"merlin/internal/workloads"
)

// Option configures a Session at Start time. Each option only sets its
// knob; Start and StartBatch validate the assembled configuration once
// (buildSessionConfig), so a bad value or a conflicting combination fails
// there instead of being silently patched.
type Option func(*sessionConfig)

// sessionConfig accumulates options before validation. structures is the
// batch target list of WithStructures, consumed by StartBatch and
// rejected by Start.
type sessionConfig struct {
	cfg        Config
	structures []Structure
	progress   func(CampaignEvent)
}

// WithStructure selects the injection target (default RF).
func WithStructure(s Structure) Option {
	return func(o *sessionConfig) { o.cfg.Structure = s }
}

// WithStructures selects the injection targets of a batch campaign, in
// report order; duplicates are dropped, and the list must not be empty. It
// is a StartBatch option — Start runs a single-structure campaign and
// rejects it (use WithStructure there). StartBatch without WithStructures
// targets all structures.
func WithStructures(ss ...Structure) Option {
	return func(o *sessionConfig) {
		// Non-nil even when empty: an empty list is an error, not "all".
		o.structures = make([]Structure, 0, len(ss))
		for _, s := range ss {
			if !slices.Contains(o.structures, s) {
				o.structures = append(o.structures, s)
			}
		}
	}
}

// WithCPU sets the core configuration (default: the paper's Table 1
// baseline).
func WithCPU(c cpu.Config) Option {
	return func(o *sessionConfig) { o.cfg.CPU = c }
}

// WithFaults sets the initial statistical fault list size directly;
// without it the size derives from the sampling parameters.
func WithFaults(n int) Option {
	return func(o *sessionConfig) { o.cfg.Faults = n }
}

// WithSampling sets the statistical confidence and error margin that size
// the fault list when WithFaults is not given (defaults 0.998 / 0.0063,
// the paper's 60K-fault setup).
func WithSampling(confidence, errorMargin float64) Option {
	return func(o *sessionConfig) {
		o.cfg.Confidence = confidence
		o.cfg.ErrorMargin = errorMargin
	}
}

// WithSeed drives fault sampling (and nothing else; the simulator is
// deterministic).
func WithSeed(seed int64) Option {
	return func(o *sessionConfig) { o.cfg.Seed = seed }
}

// WithWorkers bounds injection parallelism (default: all host cores).
func WithWorkers(n int) Option {
	return func(o *sessionConfig) { o.cfg.Workers = n }
}

// WithStrategy selects the injection strategy (default StrategyForked).
// Both strategies classify every fault identically; StrategyReplay, the
// assumption-free reference, simulates every run from reset to program end
// and is several times slower.
func WithStrategy(s Strategy) Option {
	return func(o *sessionConfig) { o.cfg.Strategy = s }
}

// WithCache attaches a golden-run artifact cache: Preprocess is served
// from it when a previous campaign already profiled the same (workload,
// core config, structure). Open one with OpenCache.
func WithCache(c *Cache) Option {
	return func(o *sessionConfig) { o.cfg.Cache = c }
}

// WithSnapshotCache attaches a shared checkpoint-ladder cache to a forked
// campaign: on a miss its sweep freezes the ladder into the cache as it
// passes the rungs, at no replay of its own, and on a hit, with or without
// an artifact-cache hit, its sweep jumps along the cached ladder, so
// concurrent and repeat campaigns over one (workload, CPU config, golden
// cycles) share one ladder. Without one, a campaign has no ladder: its
// sweep runs from reset. Create one
// with NewSnapshotCache; the daemon wires a process-wide instance into
// every campaign.
func WithSnapshotCache(c *SnapshotCache) Option {
	return func(o *sessionConfig) { o.cfg.Snapshots = c }
}

// WithStaticPrune has no effect: Reduce prunes with the dynamic ACE-like
// intervals alone. It remains only because bench/probes.go calls it, and
// goes with the next benchmark refresh (ROADMAP item 8(b)).
func WithStaticPrune() Option { return func(*sessionConfig) {} }

// CampaignEvent is one record of a campaign's progress stream: what a
// WithProgress subscriber receives and, as NDJSON, what the campaign
// service logs. A Session emits "preprocess" (CacheHit), "reduce",
// "inject" or "baseline" (SnapshotHit, CyclesPerSec) when a phase is
// done, each with a one-line Msg, and one "fault" (Index, Fault, Outcome)
// per classified fault; a Batch adds a "batch" summary.
// Fault events are emitted from injection worker goroutines, concurrently
// and in completion (not input) order — a WithProgress callback must be
// safe for concurrent use and should return quickly.
type CampaignEvent = server.Event

// WithProgress subscribes fn to the Session's progress stream (see
// CampaignEvent).
func WithProgress(fn func(CampaignEvent)) Option {
	return func(o *sessionConfig) { o.progress = fn }
}

// Session is one MeRLiN campaign as a first-class object: Start validates
// the configuration, and the phase methods run the pipeline under a
// caller-supplied context, so a campaign can be cancelled or deadlined
// between (and, for injection, within) phases. Phases are idempotent —
// Preprocess and Reduce memoize their products, and Run/Baseline auto-run
// any phase not yet executed — so Run(ctx) alone and Run after an
// explicit Preprocess/Reduce are interchangeable.
//
// A Session runs a single campaign; its methods must not be called
// concurrently with each other. (The injection phase parallelizes
// internally regardless.)
type Session struct {
	cfg  Config
	emit func(CampaignEvent)

	art *Artifacts // phase products; art.Red memoizes the reduction

	inject injectFunc
}

// injectFunc is the one injection executor underneath a Session: it
// classifies faults — any list over a's golden run: Run passes the
// reduced list, Baseline the whole initial one — on a's Runner under a's
// plan, reporting each fault through onOutcome (nil for none) with its
// index in faults, and returns the campaign Result. What the list means
// (extrapolate it, compare against it) is the caller's business. The
// Result is never nil: on cancellation it is the partial one, returned
// together with ctx.Err(). The daemon swaps in its resumable, shardable
// ledger (Batch.inject); everything else runs runList.
type injectFunc func(ctx context.Context, a *Artifacts, faults []Fault, onOutcome func(int, Fault, Outcome)) (*campaign.Result, error)

// runList is the default executor: one Runner.Run over the whole list.
func runList(ctx context.Context, a *Artifacts, faults []Fault, onOutcome func(int, Fault, Outcome)) (*campaign.Result, error) {
	return a.Runner.Run(ctx, faults, &a.Golden.Result, a.Config.plan(onOutcome))
}

// buildSessionConfig applies the options over the defaults that are not
// zero values, verifies the workload exists, and returns the validated,
// defaults-applied configuration. Start and StartBatch share it, and it is
// the one place campaign options are checked.
func buildSessionConfig(workload string, opts []Option) (sessionConfig, error) {
	var sc sessionConfig
	sc.cfg.Workload = workload
	sc.cfg.Strategy = StrategyForked
	for _, opt := range opts {
		if opt != nil {
			opt(&sc)
		}
	}
	if _, err := workloads.Get(workload); err != nil {
		return sc, err
	}
	if sc.structures != nil && len(sc.structures) == 0 {
		return sc, fmt.Errorf("merlin: WithStructures: want at least one structure")
	}
	for _, s := range sc.structures {
		if s >= NumStructures {
			return sc, fmt.Errorf("merlin: WithStructures: unknown structure %d", s)
		}
	}
	sc.cfg = sc.cfg.fillDefaults()
	return sc, sc.cfg.validate()
}

// Start validates workload and options and returns a Session ready to
// run. No simulation happens here — Start is cheap enough to double as a
// request validator (the campaign daemon uses it that way). ctx only
// gates Start itself; each phase method takes its own context.
func Start(ctx context.Context, workload string, opts ...Option) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc, err := buildSessionConfig(workload, opts)
	if err != nil {
		return nil, err
	}
	if len(sc.structures) > 0 {
		return nil, fmt.Errorf("merlin: WithStructures is a batch option; use StartBatch (single campaigns take WithStructure)")
	}
	return &Session{cfg: sc.cfg, emit: sc.progress, inject: runList}, nil
}

// Config returns the session's configuration after defaults were applied.
func (s *Session) Config() Config { return s.cfg }

// Artifacts exposes the preprocessing products (golden run, ACE-like
// analysis, fault list); nil until Preprocess has run. It is the escape
// hatch for studies that reduce or inject lists their own way (ablations,
// Relyzer, layer probes); the comprehensive campaign is Baseline.
func (s *Session) Artifacts() *Artifacts { return s.art }

// emitEvent reports one event of the session, tagged with its structure.
func (s *Session) emitEvent(ev CampaignEvent) {
	if s.emit != nil {
		ev.Structure = s.cfg.Structure.String()
		s.emit(ev)
	}
}

// faultEmitter adapts the progress stream to the campaign plan's
// per-fault hook; nil when no subscriber is attached.
func (s *Session) faultEmitter() func(int, Fault, Outcome) {
	if s.emit == nil {
		return nil
	}
	return func(idx int, f Fault, o Outcome) {
		s.emitEvent(CampaignEvent{Type: "fault", Index: &idx, Fault: f.String(), Outcome: o.String()})
	}
}

// Preprocess runs phase 1 (golden run + ACE-like analysis + initial fault
// list), serving it from the artifact cache when one is attached and warm.
// It memoizes: a second call is a no-op. The context gates phase entry;
// the golden run itself is not interruptible (it is bounded by the
// runner's golden budget and amortized by the cache).
func (s *Session) Preprocess(ctx context.Context) error {
	if s.art != nil {
		return nil
	}
	arts, err := preprocess(ctx, s.cfg, []Structure{s.cfg.Structure}, s.emitEvent)
	if err != nil {
		return err
	}
	s.art = arts[0]
	return nil
}

// preprocess is phase 1 behind Session.Preprocess and Batch.Preprocess — a
// session is the one-structure case: the context gate, one
// preprocessStructures over the target list, and the phase's progress
// events through emit.
func preprocess(ctx context.Context, cfg Config, structures []Structure, emit func(CampaignEvent)) ([]*Artifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	arts, err := preprocessStructures(cfg, structures)
	if err != nil {
		return nil, err
	}
	a := arts[0] // every structure shares the golden run and its cache outcome
	src := "golden run simulated (no cache)"
	switch {
	case a.CacheHit:
		src = "golden run served from artifact cache"
	case cfg.Cache != nil:
		src = "golden run simulated and cached"
	}
	if a.CacheErr != nil {
		src += " (cache write failed: " + a.CacheErr.Error() + ")"
	}
	if len(arts) > 1 {
		src += fmt.Sprintf(" (shared by %d structures)", len(arts))
	}
	parts := make([]string, len(arts))
	for i, a := range arts {
		parts[i] = fmt.Sprintf("%v (%d vulnerable intervals, %d faults sampled)",
			a.Config.Structure, len(a.Analysis.Intervals), len(a.Faults))
	}
	hit := a.CacheHit
	emit(CampaignEvent{
		Type: "preprocess", CacheHit: &hit,
		Msg: fmt.Sprintf("%s: %d cycles; %s", src, a.Golden.Result.Cycles, strings.Join(parts, ", ")),
	})
	return arts, nil
}

// Reduce runs phase 2 (ACE-like pruning + two-step grouping), memoizing
// the reduction. It requires Preprocess to have run.
func (s *Session) Reduce() (*Reduction, error) {
	if s.art == nil {
		return nil, fmt.Errorf("merlin: Reduce before Preprocess (call Preprocess or Run first)")
	}
	if s.art.Red != nil {
		return s.art.Red, nil
	}
	red := s.art.Reduce()
	msg := fmt.Sprintf("%d faults -> %d ACE-masked -> %d groups -> %d representatives",
		len(s.art.Faults), red.ACEMasked, len(red.Groups), red.ReducedCount())
	s.emitEvent(CampaignEvent{Type: "reduce", Msg: msg})
	return red, nil
}

// Run executes the full MeRLiN pipeline and returns the campaign report:
// phase 3 — the representatives of the reduced fault list are injected
// and their outcomes extrapolated over the full initial list — after
// Preprocess and Reduce, which run first if they have not yet.
//
// Injection observes ctx between faults. On cancellation Run returns
// ctx.Err() together with a partial *Report: Dist then holds the raw
// (unextrapolated) distribution of the representatives classified before
// the cut and Cancelled counts the representatives never injected.
func (s *Session) Run(ctx context.Context) (*Report, error) {
	if err := s.Preprocess(ctx); err != nil {
		return nil, err
	}
	if _, err := s.Reduce(); err != nil {
		return nil, err
	}
	res, err := s.inject(ctx, s.art, s.art.Red.Reduced(), s.faultEmitter())
	rep := s.art.reportFrom(res, err == nil)
	if err != nil {
		return rep, err
	}
	s.emitInjected("inject", "representatives", res, rep.Dist)
	return rep, nil
}

// emitInjected reports an injection phase's completion (event type typ):
// res classified its list of what into dist.
func (s *Session) emitInjected(typ, what string, res *campaign.Result, dist Dist) {
	snap := res.SnapshotHit
	s.emitEvent(CampaignEvent{
		Type: typ, SnapshotHit: &snap, CyclesPerSec: res.CyclesPerSec(),
		Msg: fmt.Sprintf("injected %d %s in %v (%s cycles/s; %s): %v",
			res.Injected, what, res.Wall.Round(time.Millisecond),
			siCount(res.CyclesPerSec()), workNote(res.Work), dist),
	})
}

// siCount renders a rate with an SI suffix for the phase summaries.
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Baseline injects the entire initial fault list (the comprehensive
// campaign MeRLiN is compared against) through the executor Run uses,
// reusing this session's preprocessing products, so it does not repeat the
// golden run after Run. It shares Run's cancellation contract: on
// cancellation the partial *BaselineReport is returned together with
// ctx.Err().
func (s *Session) Baseline(ctx context.Context) (*BaselineReport, error) {
	if err := s.Preprocess(ctx); err != nil {
		return nil, err
	}
	res, err := s.inject(ctx, s.art, s.art.Faults, s.faultEmitter())
	rep := s.art.baselineFrom(res)
	if err != nil {
		return rep, err
	}
	s.emitInjected("baseline", "faults", res, rep.Dist)
	return rep, nil
}
