// Benchmarks regenerating each table and figure of the paper's evaluation
// at reduced scale (one per table/figure; cmd/experiments runs the same
// generators at arbitrary scale). Key reproduced quantities are attached
// as custom benchmark metrics so `go test -bench` output documents the
// measured shape next to the paper's numbers.
package merlin_test

import (
	"context"
	"testing"
	"time"

	"merlin"

	"merlin/internal/campaign"
	"merlin/internal/experiments"
	"merlin/internal/lifetime"
	reduction "merlin/internal/merlin"
	"merlin/internal/stats"
)

func benchOpts(faults int, wls ...string) experiments.Options {
	return experiments.Options{Faults: faults, Workloads: wls, Seed: 1}
}

// benchSession starts one campaign session for a benchmark.
func benchSession(b *testing.B, wl string, s merlin.Structure, faults int, seed int64) *merlin.Session {
	b.Helper()
	sess, err := merlin.Start(context.Background(), wl,
		merlin.WithStructure(s), merlin.WithFaults(faults), merlin.WithSeed(seed))
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

// benchArtifacts runs phase 1 of such a session and returns its products.
func benchArtifacts(b *testing.B, wl string, s merlin.Structure, faults int, seed int64) *merlin.Artifacts {
	b.Helper()
	sess := benchSession(b, wl, s, faults, seed)
	if err := sess.Preprocess(context.Background()); err != nil {
		b.Fatal(err)
	}
	return sess.Artifacts()
}

// BenchmarkTable1 exercises the baseline configuration golden run.
func BenchmarkTable1_BaselineConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty")
		}
		rep, err := benchSession(b, "sha", merlin.RF, 200, 1).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.GoldenCycles), "golden-cycles")
	}
}

// BenchmarkTable3 computes the analytic exhaustive-list comparison.
func BenchmarkTable3_ExhaustiveModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := reduction.DefaultExhaustiveModel().Table3()
		b.ReportMetric(rows[0].Gain, "merlin-gain")
		b.ReportMetric(rows[1].Gain, "relyzer-gain")
	}
}

// BenchmarkTable4 runs the truncated-run accuracy study (gcc, bzip2).
func BenchmarkTable4_TruncatedAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(context.Background(), benchOpts(150))
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for j := 0; j < len(r.Rows); j += 2 {
			for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
				d := 100 * (r.Rows[j].Dist.Share(o) - r.Rows[j+1].Dist.Share(o))
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
		b.ReportMetric(worst, "worst-diff-pp")
	}
}

// BenchmarkFigure6 measures fine-grained homogeneity.
func BenchmarkFigure6_FineHomogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(context.Background(), benchOpts(250, "sha"))
		if err != nil {
			b.Fatal(err)
		}
		var fine float64
		for _, c := range r.Campaigns {
			fine += c.Homog.Fine
		}
		b.ReportMetric(fine/float64(len(r.Campaigns)), "homogeneity")
	}
}

// BenchmarkFigure7 measures coarse homogeneity and perfect-group share.
func BenchmarkFigure7_CoarseHomogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(context.Background(), benchOpts(250, "fft"))
		if err != nil {
			b.Fatal(err)
		}
		var coarse, perfect float64
		for _, c := range r.Campaigns {
			coarse += c.Homog.Coarse
			perfect += c.Homog.PerfectShare
		}
		n := float64(len(r.Campaigns))
		b.ReportMetric(coarse/n, "coarse-homog")
		b.ReportMetric(100*perfect/n, "perfect-%")
	}
}

func benchSpeedup(b *testing.B, f func(context.Context, experiments.Options) (*experiments.SpeedupResult, error), faults int, wls ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f(context.Background(), benchOpts(faults, wls...))
		if err != nil {
			b.Fatal(err)
		}
		var ace, final float64
		for _, c := range r.Cells {
			ace += c.ACE
			final += c.Final
		}
		n := float64(len(r.Cells))
		b.ReportMetric(ace/n, "ace-speedup")
		b.ReportMetric(final/n, "final-speedup")
	}
}

// BenchmarkFigure8 regenerates the register-file speedups.
func BenchmarkFigure8_RFSpeedup(b *testing.B) {
	benchSpeedup(b, experiments.Fig8, 2000, "sha", "qsort")
}

// BenchmarkFigure9 regenerates the store-queue speedups.
func BenchmarkFigure9_SQSpeedup(b *testing.B) {
	benchSpeedup(b, experiments.Fig9, 2000, "sha", "qsort")
}

// BenchmarkFigure10 regenerates the L1D speedups.
func BenchmarkFigure10_L1DSpeedup(b *testing.B) {
	benchSpeedup(b, experiments.Fig10, 2000, "sha", "qsort")
}

// BenchmarkFigure11 measures per-injection cost and extrapolates campaign
// wall-clock, baseline vs MeRLiN.
func BenchmarkFigure11_EstimationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(context.Background(), benchOpts(300, "sha"))
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		rows := 0
		for _, row := range r.Rows {
			if row.MerlinSeconds > 0 {
				ratio += row.BaselineSeconds / row.MerlinSeconds
				rows++
			}
		}
		if rows > 0 {
			b.ReportMetric(ratio/float64(rows), "time-speedup")
		}
	}
}

// BenchmarkFigure12 regenerates the SPEC speedups.
func BenchmarkFigure12_SPECSpeedup(b *testing.B) {
	benchSpeedup(b, experiments.Fig12, 2000, "mcf", "libquantum")
}

// BenchmarkFigure13 regenerates the initial-list scaling study.
func BenchmarkFigure13_Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts(2000, "qsort")
		o.ScaleFactor = 4
		r, err := experiments.Fig13(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgScaleUp, "speedup-scale")
		b.ReportMetric(r.AvgInject, "injected-scale")
	}
}

// BenchmarkFigure14 compares MeRLiN's extrapolation against full post-ACE
// injection.
func BenchmarkFigure14_PostACEAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(context.Background(), benchOpts(250, "qsort"))
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, c := range r.Campaigns {
			for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
				d := 100 * (c.MerlinPostACE.Share(o) - c.FullPostACE.Share(o))
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
		b.ReportMetric(worst, "worst-diff-pp")
	}
}

// BenchmarkFigure15 compares the extrapolated full-list classification
// against the comprehensive baseline.
func BenchmarkFigure15_BaselineAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess := benchSession(b, "fft", merlin.SQ, 400, 2)
		base, err := sess.Baseline(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sess.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
			d := 100 * (rep.Dist.Share(o) - base.Dist.Share(o))
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "worst-diff-pp")
		b.ReportMetric(float64(base.Faults)/float64(rep.Injected), "speedup")
	}
}

// BenchmarkFigure16 computes FIT rates for baseline, MeRLiN and ACE-like.
func BenchmarkFigure16_FIT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchSession(b, "sha", merlin.RF, 1000, 3).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.FIT, "merlin-fit")
		b.ReportMetric(rep.ACELikeFIT, "acelike-fit")
	}
}

// BenchmarkFigure17 compares the Relyzer heuristic's inaccuracy with
// MeRLiN's.
func BenchmarkFigure17_RelyzerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(context.Background(), benchOpts(300, "stringsearch"))
		if err != nil {
			b.Fatal(err)
		}
		var rel, mer float64
		for _, c := range r.Campaigns {
			for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
				d := 100 * (c.RelyzerPostACE.Share(o) - c.FullPostACE.Share(o))
				if d < 0 {
					d = -d
				}
				if d > rel {
					rel = d
				}
				d = 100 * (c.MerlinPostACE.Share(o) - c.FullPostACE.Share(o))
				if d < 0 {
					d = -d
				}
				if d > mer {
					mer = d
				}
			}
		}
		b.ReportMetric(rel, "relyzer-worst-pp")
		b.ReportMetric(mer, "merlin-worst-pp")
	}
}

// BenchmarkTheory evaluates the §4.4.5 variance analysis on an observed
// campaign structure.
func BenchmarkTheory_VarianceAnalysis(b *testing.B) {
	r, err := experiments.RunAccuracy(context.Background(), benchOpts(400, "sha"))
	if err != nil {
		b.Fatal(err)
	}
	var sizes, nonMasked []int
	total := 0
	for _, c := range r.Campaigns {
		sizes = append(sizes, c.GroupSizes...)
		nonMasked = append(nonMasked, c.GroupNonMasked...)
		total += c.InitialFaults
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := stats.FromObserved(total, sizes, nonMasked).Analyze()
		b.ReportMetric(rep.OrdersBaseline, "orders-baseline")
		b.ReportMetric(rep.OrdersMerlin, "orders-merlin")
	}
}

// strategyArtifacts prepares the 1,000-fault RF campaign every strategy
// benchmark replays, so Replay/Checkpointed/Forked are timed on an
// identical fault list and golden run.
func strategyArtifacts(b *testing.B) *merlin.Artifacts {
	b.Helper()
	return benchArtifacts(b, "sha", merlin.RF, 1000, 1)
}

func benchStrategy(b *testing.B, s campaign.Strategy) {
	a := strategyArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.Runner.Run(context.Background(), a.Faults, &a.Golden.Result, campaign.Plan{Strategy: s})
		if err != nil {
			b.Fatal(err)
		}
		if res.Dist.Total() != len(a.Faults) {
			b.Fatal("missing outcomes")
		}
		b.ReportMetric(res.Wall.Seconds()*1000, "wall-ms")
		b.ReportMetric(res.Serial.Seconds()*1000, "serial-ms")
	}
}

// BenchmarkStrategy_Replay times the from-reset baseline strategy.
func BenchmarkStrategy_Replay(b *testing.B) { benchStrategy(b, campaign.Replay) }

// BenchmarkStrategy_Checkpointed times the k-snapshot strategy.
func BenchmarkStrategy_Checkpointed(b *testing.B) { benchStrategy(b, campaign.Checkpointed) }

// BenchmarkStrategy_Forked times the fork-on-fault strategy.
func BenchmarkStrategy_Forked(b *testing.B) { benchStrategy(b, campaign.Forked) }

// BenchmarkStrategy_Speedup runs all three strategies on the identical
// campaign and reports Forked's and Checkpointed's wall-clock and
// serial-equivalent speedups over Replay (and verifies the outcomes agree,
// so the reported speedups are for bit-identical results).
func BenchmarkStrategy_Speedup(b *testing.B) {
	a := strategyArtifacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(s campaign.Strategy) *campaign.Result {
			res, err := a.Runner.Run(context.Background(), a.Faults, &a.Golden.Result, campaign.Plan{Strategy: s})
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		replay, ckpt, forked := run(campaign.Replay), run(campaign.Checkpointed), run(campaign.Forked)
		for j := range replay.Outcomes {
			if replay.Outcomes[j] != forked.Outcomes[j] || replay.Outcomes[j] != ckpt.Outcomes[j] {
				b.Fatalf("fault %d: outcomes diverge across strategies", j)
			}
		}
		b.ReportMetric(replay.Wall.Seconds()/ckpt.Wall.Seconds(), "ckpt-wall-x")
		b.ReportMetric(replay.Serial.Seconds()/ckpt.Serial.Seconds(), "ckpt-serial-x")
		b.ReportMetric(replay.Wall.Seconds()/forked.Wall.Seconds(), "forked-wall-x")
		b.ReportMetric(replay.Serial.Seconds()/forked.Serial.Seconds(), "forked-serial-x")
	}
}

// BenchmarkGoldenRun measures raw simulator throughput (cycles/second) on
// the paper's baseline configuration.
func BenchmarkGoldenRun_SimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = benchArtifacts(b, "susan_c", merlin.RF, 1, 1).Golden.Result.Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkACELikeAnalysis isolates the interval-building step.
func BenchmarkACELikeAnalysis_Build(b *testing.B) {
	a := benchArtifacts(b, "bzip2", merlin.L1D, 2000, 1)
	log := a.Golden.Tracer.Log(merlin.L1D)
	core := a.Runner.NewCore()
	entries := core.StructureEntries(merlin.L1D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := lifetime.Build(log, merlin.L1D, entries, 64, a.Golden.Result.Cycles)
		b.ReportMetric(float64(len(an.Intervals)), "intervals")
	}
}

// BenchmarkGrouping isolates phase 2 (the fault-list reduction itself).
func BenchmarkGrouping_Reduce(b *testing.B) {
	a := benchArtifacts(b, "qsort", merlin.RF, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red := reduction.Reduce(a.Analysis, a.Faults, reduction.DefaultOptions())
		b.ReportMetric(red.FinalSpeedup(), "final-speedup")
	}
}

// BenchmarkAblation evaluates the grouping design choices (step-2 byte
// grouping, representatives per group) against ground truth.
func BenchmarkAblation_GroupingChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(context.Background(), benchOpts(800, "qsort"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].WorstDiff, "step1-only-pp")
		b.ReportMetric(r.Rows[1].WorstDiff, "paper-pp")
	}
}

// benchBatch3 is the shared harness of the batch benchmarks: a
// 3-structure qsort campaign, big enough that the golden run dominates a
// sequential re-trace. wall-ms is the mean per-iteration wall-clock
// across all of b.N (ReportMetric is last-call-wins, so per-iteration
// reporting would record only the warmest run).
func benchBatch3(b *testing.B, run func(b *testing.B)) {
	b.Helper()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run(b)
	}
	b.ReportMetric(time.Since(start).Seconds()*1000/float64(b.N), "wall-ms")
}

// BenchmarkBatch_SharedGolden times a 3-structure batch campaign: one
// golden run traced for RF, SQ and L1D, per-structure injections sharing
// the clone pool and checkpoint ladder.
func BenchmarkBatch_SharedGolden(b *testing.B) {
	benchBatch3(b, func(b *testing.B) {
		ctx := context.Background()
		batch, err := merlin.StartBatch(ctx, "qsort",
			merlin.WithStructures(merlin.RF, merlin.SQ, merlin.L1D),
			merlin.WithFaults(300), merlin.WithSeed(1),
			merlin.WithStrategy(merlin.StrategyForked))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := batch.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.GoldenRuns != 1 {
			b.Fatalf("batch ran %d golden runs", rep.GoldenRuns)
		}
	})
}

// BenchmarkBatch_Sequential3x times the pre-batch equivalent: three
// standalone sessions, each paying its own golden run and ladder — the
// baseline the batch's shared-golden design is measured against.
func BenchmarkBatch_Sequential3x(b *testing.B) {
	benchBatch3(b, func(b *testing.B) {
		ctx := context.Background()
		for _, structure := range []merlin.Structure{merlin.RF, merlin.SQ, merlin.L1D} {
			s, err := merlin.Start(ctx, "qsort",
				merlin.WithStructure(structure),
				merlin.WithFaults(300), merlin.WithSeed(1),
				merlin.WithStrategy(merlin.StrategyForked))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
