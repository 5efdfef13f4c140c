package merlin

// This file is the batch API: one workload evaluated across several
// structures over a single shared golden run. The paper's evaluation
// (§4.4) reports every workload per structure — RF, SQ and L1D columns of
// the same campaign — and the structures share everything the fault lists
// do not depend on: the golden run, its artifact-cache entry, the clone
// pool and the reset state (or, with a snapshot cache, the checkpoint
// ladder). StartBatch bundles them so the
// expensive shared work is paid once instead of once per structure.

import (
	"context"
	"fmt"
	"strings"
	"time"

	reduction "merlin/internal/merlin"
	"merlin/internal/stats"
)

// VarianceReport is the §4.4.5 statistical summary of one structure's
// campaign: the AVF estimator's mean and the baseline-versus-MeRLiN
// variances, with their orders of magnitude below the mean.
type VarianceReport = stats.Report

// Batch is one multi-structure campaign over a shared golden run: every
// structure in Structures gets its own Session (own fault list, own
// reduction, own report), but phase 1 runs once — a single fault-free run
// traces all structures, is cached under one artifact, and its reset state
// and clone pool are shared by every per-structure injection.
//
// Like a Session, a Batch runs a single campaign and its methods must not
// be called concurrently. The per-structure injection phases run
// sequentially (each already parallelizes across all workers); they are
// fanned out over the same scheduler machinery a standalone Session uses,
// so per-structure outcomes are bit-identical to standalone runs with the
// same configuration and seed.
type Batch struct {
	cfg        Config // shared knobs; Structure is set per session
	structures []Structure
	emit       func(CampaignEvent)

	inject   injectFunc // every session's injection executor
	sessions []*Session // one per structure, sharing the golden run
}

// StartBatch validates workload and options and returns a Batch ready to
// run. Targets come from WithStructures (default: all structures, in
// AllStructures order); every other option is shared by all per-structure
// campaigns exactly as it would configure a standalone Session — in
// particular WithSeed, so each structure's fault list is bit-identical to
// the standalone session's. WithStructure is meaningless here and is
// ignored in favor of the batch target list. Every structure's injection
// runs on the batch's one Runner over the shared golden run; with
// WithSnapshotCache they share one checkpoint ladder, frozen into the
// cache during that golden run (or, on an artifact-cache hit, replayed
// once into it).
func StartBatch(ctx context.Context, workload string, opts ...Option) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc, err := buildSessionConfig(workload, opts)
	if err != nil {
		return nil, err
	}
	structures := sc.structures
	if len(structures) == 0 {
		structures = AllStructures()
	}
	return &Batch{cfg: sc.cfg, structures: structures, emit: sc.progress, inject: runList}, nil
}

// Structures returns the batch's injection targets in report order.
func (b *Batch) Structures() []Structure {
	return append([]Structure(nil), b.structures...)
}

// emitBatch reports one batch-level progress event (no structure tag: it
// spans every structure of the batch).
func (b *Batch) emitBatch(ev CampaignEvent) {
	if b.emit != nil {
		b.emit(ev)
	}
}

// Preprocess runs the batch's phase 1: one golden run tracing every
// target structure (or one artifact-cache load of the same), from which
// the per-structure Sessions are built. It memoizes — a second call is a
// no-op — and every per-structure phase that needs it runs it
// automatically.
func (b *Batch) Preprocess(ctx context.Context) error {
	if b.sessions != nil {
		return nil
	}
	arts, err := preprocess(ctx, b.cfg, b.structures, b.emitBatch)
	if err != nil {
		return err
	}
	b.sessions = make([]*Session, len(arts))
	for i, a := range arts {
		b.sessions[i] = &Session{cfg: a.Config, emit: b.emit, art: a, inject: b.inject}
	}
	return nil
}

// Run executes the whole batch: the shared Preprocess, then every
// structure's Reduce and injection in Structures order, and aggregates the
// per-structure reports. Injection observes ctx between faults; on
// cancellation Run returns ctx.Err() together with the partial
// *BatchReport — finished structures carry complete reports, the
// structure under injection a partial one (Report.Cancelled > 0), and the
// rest none.
func (b *Batch) Run(ctx context.Context) (*BatchReport, error) {
	if err := b.Preprocess(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	shared := b.sessions[0].art // the golden run and runner every structure shares
	rep := &BatchReport{
		Workload:     b.cfg.Workload,
		Structures:   b.Structures(),
		GoldenCycles: shared.Golden.Result.Cycles,
		CacheHit:     shared.CacheHit,
	}
	var runErr error
	for _, s := range b.sessions {
		r, err := s.Run(ctx)
		if r != nil {
			rep.Reports = append(rep.Reports, r)
		}
		if err != nil {
			runErr = err
			break
		}
	}
	rep.GoldenRuns = shared.Runner.GoldenRuns()
	rep.Wall = time.Since(start)
	b.aggregate(rep)
	if runErr == nil {
		b.emitBatch(CampaignEvent{Type: "batch", Msg: rep.summary()})
	}
	return rep, runErr
}

// aggregate folds the per-structure reports into the batch totals and the
// §4.4.5 variance bounds. Only complete reports contribute to the totals;
// a cancelled structure's partial report (raw, unextrapolated
// distribution) stays visible in Reports but would skew cross-structure
// sums.
func (b *Batch) aggregate(rep *BatchReport) {
	rep.Variance = make([]VarianceReport, len(rep.Reports))
	var avfBits float64
	for i, r := range rep.Reports {
		if r.Cancelled > 0 {
			continue
		}
		bits := b.sessions[i].art.structureBits()
		rep.TotalBits += bits
		avfBits += r.AVF * float64(bits)
		rep.FIT += r.FIT
		rep.ACELikeFIT += r.ACELikeFIT
		rep.Variance[i] = b.varianceFor(i, r)
	}
	if rep.TotalBits > 0 {
		rep.AVF = avfBits / float64(rep.TotalBits)
	}
}

// varianceFor builds the §4.4.5 binomial model of structure i's campaign
// from its reduction groups and the representatives' observed outcomes:
// group sizes s_i, empirical per-group non-masking probabilities p_i, F
// the initial list size. The RepOutcomes-to-Groups alignment is
// Reduction.ExtrapolateGroups' — the same walk Extrapolate classifies
// with. A model stats.Campaign.Validate rejects (e.g. a zero-fault
// campaign) yields the zero report rather than NaN.
func (b *Batch) varianceFor(i int, r *Report) VarianceReport {
	red := b.sessions[i].art.Red
	sizes := make([]int, 0, len(red.Groups))
	ps := make([]float64, 0, len(red.Groups))
	red.ExtrapolateGroups(r.RepOutcomes, func(g *reduction.Group, d Dist) {
		nonMasked := d.Total() - d[Masked]
		sizes = append(sizes, len(g.Members))
		ps = append(ps, float64(nonMasked)/float64(len(g.Members)))
	})
	c := stats.Campaign{F: len(b.sessions[i].art.Faults), Sizes: sizes, Ps: ps}
	if err := c.Validate(); err != nil {
		return VarianceReport{}
	}
	return c.Analyze()
}

// BatchReport aggregates one batch campaign: the per-structure MeRLiN
// reports (each bit-identical to a standalone session's), cross-structure
// AVF/FIT totals, and the §4.4.5 variance bounds per structure.
type BatchReport struct {
	// Workload and Structures identify the batch; Reports (and Variance)
	// are in Structures order. On cancellation Reports may be shorter
	// than Structures: structures after the cancelled one never ran.
	Workload   string
	Structures []Structure
	// GoldenCycles is the shared fault-free run length in cycles.
	GoldenCycles uint64
	// GoldenRuns counts the golden simulations the batch performed: 1
	// cold, 0 when the artifact cache served it. It can never exceed 1 —
	// the batch's reason to exist.
	GoldenRuns int64
	// CacheHit reports that the shared golden run came from the artifact
	// cache.
	CacheHit bool
	// Reports are the per-structure campaign reports. A cancelled batch's
	// last entry may be partial (Report.Cancelled > 0).
	Reports []*Report
	// Variance holds the §4.4.5 statistical summary per structure
	// (parallel to Reports; the zero value for partial reports).
	Variance []VarianceReport
	// TotalBits sums the evaluated structures' storage bits; AVF is the
	// bit-weighted cross-structure vulnerability and FIT the summed
	// failure rate (FIT rates of independent structures add). ACELikeFIT
	// is the summed analysis-only upper bound. Partial reports are
	// excluded from all four.
	TotalBits  int
	AVF        float64
	FIT        float64
	ACELikeFIT float64
	// Wall is the whole batch's injection wall-clock (the shared golden
	// run is timed by Preprocess, not here).
	Wall time.Duration
}

// summary is the one-line batch completion message of the progress
// stream.
func (r *BatchReport) summary() string {
	return fmt.Sprintf("batch of %d structures done in %v: AVF %.4f, FIT %.3f over %d bits (golden runs: %d)",
		len(r.Reports), r.Wall.Round(time.Millisecond), r.AVF, r.FIT, r.TotalBits, r.GoldenRuns)
}

// String renders the per-structure reports followed by the batch totals.
func (r *BatchReport) String() string {
	var sb strings.Builder
	for _, rep := range r.Reports {
		fmt.Fprintf(&sb, "%v\n", rep)
	}
	fmt.Fprintf(&sb, "batch %s: AVF %.4f (bit-weighted)  FIT %.3f (ACE-like bound %.3f) over %d bits, one golden run shared by %d structures",
		r.Workload, r.AVF, r.FIT, r.ACELikeFIT, r.TotalBits, len(r.Reports))
	return sb.String()
}
