// Benchmarks regenerating each table and figure of the paper's evaluation
// at reduced scale (one per table/figure; cmd/experiments runs the same
// generators at arbitrary scale). Key reproduced quantities are attached
// as custom benchmark metrics so `go test -bench` output documents the
// measured shape next to the paper's numbers. These are reproduction entry
// points, not performance measurements: speed is measured by `go run
// ./bench` alone.
package merlin_test

import (
	"context"
	"testing"

	"merlin"

	"merlin/internal/campaign"
	"merlin/internal/experiments"
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
		rows := experiments.DefaultExhaustiveModel().Table3()
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
