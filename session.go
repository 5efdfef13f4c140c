package merlin

// This file is the public campaign API: merlin.Start builds a Session from
// functional options, and the Session exposes the pipeline phases as
// context-aware, cancellable methods with a unified typed progress stream.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/workloads"
)

// Option configures a Session at Start time: each knob is an explicit,
// validated setter, and conflicting combinations fail Start instead of
// being silently patched.
type Option func(*sessionConfig) error

// sessionConfig accumulates options before validation. structures is the
// batch target list of WithStructures, consumed by StartBatch and
// rejected by Start.
type sessionConfig struct {
	cfg        Config
	structures []Structure
	progress   func(Progress)
}

// WithStructure selects the injection target (default RF).
func WithStructure(s Structure) Option {
	return func(o *sessionConfig) error {
		o.cfg.Structure = s
		return nil
	}
}

// WithStructures selects the injection targets of a batch campaign, in
// report order; duplicates are dropped. It is a StartBatch option — Start
// runs a single-structure campaign and rejects it (use WithStructure
// there). StartBatch without WithStructures targets all structures.
func WithStructures(ss ...Structure) Option {
	return func(o *sessionConfig) error {
		if len(ss) == 0 {
			return fmt.Errorf("merlin: WithStructures: want at least one structure")
		}
		var out []Structure
		seen := [NumStructures]bool{}
		for _, s := range ss {
			if s >= NumStructures {
				return fmt.Errorf("merlin: WithStructures: unknown structure %d", s)
			}
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		o.structures = out
		return nil
	}
}

// WithCPU sets the core configuration (default: the paper's Table 1
// baseline).
func WithCPU(c cpu.Config) Option {
	return func(o *sessionConfig) error {
		o.cfg.CPU = c
		return nil
	}
}

// WithFaults sets the initial statistical fault list size directly;
// without it the size derives from the sampling parameters.
func WithFaults(n int) Option {
	return func(o *sessionConfig) error {
		if n < 0 {
			return fmt.Errorf("merlin: WithFaults(%d): want >= 0", n)
		}
		o.cfg.Faults = n
		return nil
	}
}

// WithSampling sets the statistical confidence and error margin that size
// the fault list when WithFaults is not given (defaults 0.998 / 0.0063,
// the paper's 60K-fault setup).
func WithSampling(confidence, errorMargin float64) Option {
	return func(o *sessionConfig) error {
		o.cfg.Confidence = confidence
		o.cfg.ErrorMargin = errorMargin
		return nil
	}
}

// WithSeed drives fault sampling (and nothing else; the simulator is
// deterministic).
func WithSeed(seed int64) Option {
	return func(o *sessionConfig) error {
		o.cfg.Seed = seed
		return nil
	}
}

// WithRepsPerGroup injects n representatives per final group instead of
// the paper's 1 (accuracy/cost ablation).
func WithRepsPerGroup(n int) Option {
	return func(o *sessionConfig) error {
		if n < 1 {
			return fmt.Errorf("merlin: WithRepsPerGroup(%d): want >= 1", n)
		}
		o.cfg.RepsPerGroup = n
		return nil
	}
}

// WithoutByteGrouping disables step 2 of the grouping algorithm
// (ablation).
func WithoutByteGrouping() Option {
	return func(o *sessionConfig) error {
		o.cfg.DisableByteGrouping = true
		return nil
	}
}

// WithWorkers bounds injection parallelism (default: all host cores).
func WithWorkers(n int) Option {
	return func(o *sessionConfig) error {
		if n < 0 {
			return fmt.Errorf("merlin: WithWorkers(%d): want >= 0 (0 = all host cores)", n)
		}
		o.cfg.Workers = n
		return nil
	}
}

// WithStrategy selects the injection strategy (default StrategyForked).
// Both strategies classify every fault identically; StrategyReplay, the
// assumption-free reference, simulates every run from reset to program end
// and is several times slower.
func WithStrategy(s Strategy) Option {
	return func(o *sessionConfig) error {
		switch s {
		case StrategyReplay, StrategyForked:
		default:
			return fmt.Errorf("merlin: WithStrategy(%v): unknown strategy", s)
		}
		o.cfg.Strategy = s
		return nil
	}
}

// WithCache attaches a golden-run artifact cache: Preprocess is served
// from it when a previous campaign already profiled the same (workload,
// core config, structure). Open one with OpenCache.
func WithCache(c *Cache) Option {
	return func(o *sessionConfig) error {
		o.cfg.Cache = c
		return nil
	}
}

// WithSnapshotCache attaches a shared checkpoint-ladder cache: the forked
// strategy serves its frozen machine snapshots from it instead of
// rebuilding them, so concurrent and repeat campaigns
// over one (workload, CPU config, golden cycles) pay the ladder build
// once. Create one with NewSnapshotCache; the daemon wires a process-wide
// instance into every campaign.
func WithSnapshotCache(c *SnapshotCache) Option {
	return func(o *sessionConfig) error {
		o.cfg.Snapshots = c
		return nil
	}
}

// WithStaticPrune enables the guestflow static pre-pruner: register-file
// fault sites in statically must-dead windows are classified masked
// before Reduce, skipping their dynamic interval lookups. Every pruned
// fault is cross-verified against the dynamic analysis — a disagreement
// fails Reduce loudly — so reports are bit-identical to unpruned runs.
// Non-RF structures ignore the option.
func WithStaticPrune() Option {
	return func(o *sessionConfig) error {
		o.cfg.StaticPrune = true
		return nil
	}
}

// WithProgress subscribes fn to the Session's typed progress stream. See
// Progress for the concurrency contract.
func WithProgress(fn func(Progress)) Option {
	return func(o *sessionConfig) error {
		o.progress = fn
		return nil
	}
}

// Session is one MeRLiN campaign as a first-class object: Start validates
// the configuration, and the phase methods run the pipeline under a
// caller-supplied context, so a campaign can be cancelled or deadlined
// between (and, for injection, within) phases. Phases are idempotent —
// Preprocess and Reduce memoize their products, and Inject/Baseline
// auto-run any phase not yet executed — so Run(ctx) and an explicit
// Preprocess/Reduce/Inject sequence are interchangeable.
//
// A Session runs a single campaign; its methods must not be called
// concurrently with each other. (The injection phase parallelizes
// internally regardless.)
type Session struct {
	cfg  Config
	emit func(Progress)

	art *Artifacts // phase products; art.Red memoizes the reduction

	inject injectFunc
}

// injectFunc is the one injection executor underneath a Session: it
// classifies faults — any list over a's golden run: Inject passes the
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
// defaults-applied configuration. Start and StartBatch share it.
func buildSessionConfig(workload string, opts []Option) (sessionConfig, error) {
	var sc sessionConfig
	sc.cfg.Workload = workload
	sc.cfg.Strategy = StrategyForked
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&sc); err != nil {
			return sc, err
		}
	}
	if _, err := workloads.Get(workload); err != nil {
		return sc, err
	}
	sc.cfg = sc.cfg.fillDefaults()
	if err := sc.cfg.validate(); err != nil {
		return sc, err
	}
	return sc, nil
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
// hatch for studies that drive the Runner directly (e.g. injecting the
// full post-ACE list as ground truth).
func (s *Session) Artifacts() *Artifacts { return s.art }

func (s *Session) emitEvent(p Progress) {
	if s.emit != nil {
		p.Structure = s.cfg.Structure.String()
		s.emit(p)
	}
}

// faultEmitter adapts the progress stream to the campaign plan's
// per-fault hook; nil when no subscriber is attached.
func (s *Session) faultEmitter(phase Phase) func(int, Fault, Outcome) {
	if s.emit == nil {
		return nil
	}
	return func(idx int, f Fault, o Outcome) {
		s.emitEvent(Progress{Kind: ProgressFault, Phase: phase, Index: idx, Fault: f, Outcome: o})
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
func preprocess(ctx context.Context, cfg Config, structures []Structure, emit func(Progress)) ([]*Artifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emit(Progress{Kind: ProgressPhaseStart, Phase: PhasePreprocess})
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
	emit(Progress{
		Kind: ProgressPhaseDone, Phase: PhasePreprocess,
		CacheHit: a.CacheHit, CacheErr: a.CacheErr,
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
	s.emitEvent(Progress{Kind: ProgressPhaseStart, Phase: PhaseReduce})
	if s.cfg.StaticPrune {
		if err := s.art.staticPrune(); err != nil {
			return nil, err
		}
	}
	red := s.art.Reduce()
	msg := fmt.Sprintf("%d faults -> %d ACE-masked -> %d groups -> %d representatives",
		len(s.art.Faults), red.ACEMasked, len(red.Groups), red.ReducedCount())
	if s.art.StaticPruned > 0 {
		msg += fmt.Sprintf(" (%d statically pre-pruned)", s.art.StaticPruned)
	}
	s.emitEvent(Progress{
		Kind: ProgressPhaseDone, Phase: PhaseReduce,
		StaticPruned: s.art.StaticPruned,
		Msg:          msg,
	})
	return red, nil
}

// Inject runs phase 3: the representatives of the reduced fault list are
// injected and their outcomes extrapolated over the full initial list.
// Earlier phases run automatically if they have not yet.
//
// Injection observes ctx between faults. On cancellation Inject returns
// ctx.Err() together with a partial *Report: Dist then holds the raw
// (unextrapolated) distribution of the representatives classified before
// the cut and Cancelled counts the representatives never injected.
func (s *Session) Inject(ctx context.Context) (*Report, error) {
	if err := s.Preprocess(ctx); err != nil {
		return nil, err
	}
	if _, err := s.Reduce(); err != nil {
		return nil, err
	}
	s.emitEvent(Progress{Kind: ProgressPhaseStart, Phase: PhaseInject})
	res, err := s.inject(ctx, s.art, s.art.Red.Reduced(), s.faultEmitter(PhaseInject))
	rep := s.art.reportFrom(res, err == nil)
	if err != nil {
		return rep, err
	}
	s.emitInjected(PhaseInject, "representatives", res, rep.Dist)
	return rep, nil
}

// emitInjected reports an injection phase's completion: res classified its
// list of what into dist.
func (s *Session) emitInjected(phase Phase, what string, res *campaign.Result, dist Dist) {
	s.emitEvent(Progress{
		Kind: ProgressPhaseDone, Phase: phase,
		SnapshotHit: res.SnapshotHit, CyclesPerSec: res.CyclesPerSec(),
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

// Run executes the full MeRLiN pipeline (Preprocess, Reduce, Inject) and
// returns the campaign report. It shares Inject's cancellation contract.
func (s *Session) Run(ctx context.Context) (*Report, error) {
	return s.Inject(ctx)
}

// Baseline injects the entire initial fault list (the comprehensive
// campaign MeRLiN is compared against) through the executor Inject uses,
// reusing this session's preprocessing products, so it does not repeat the
// golden run after Run. It shares Inject's cancellation contract: on
// cancellation the partial *BaselineReport is returned together with
// ctx.Err().
func (s *Session) Baseline(ctx context.Context) (*BaselineReport, error) {
	if err := s.Preprocess(ctx); err != nil {
		return nil, err
	}
	s.emitEvent(Progress{Kind: ProgressPhaseStart, Phase: PhaseBaseline})
	res, err := s.inject(ctx, s.art, s.art.Faults, s.faultEmitter(PhaseBaseline))
	rep := s.art.baselineFrom(res)
	if err != nil {
		return rep, err
	}
	s.emitInjected(PhaseBaseline, "faults", res, rep.Dist)
	return rep, nil
}
