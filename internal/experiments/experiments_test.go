package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"merlin/internal/campaign"
)

// Small options keep the experiment tests quick; the real scale is driven
// from cmd/experiments and recorded in EXPERIMENTS.md.
func quick() Options {
	return Options{Faults: 300, ScaleFactor: 4, Workloads: []string{"sha", "fft"}, Seed: 5}
}

// quickAccuracy and table4Small are computed once and shared with
// TestFigurePins: the accuracy sweep and the truncated campaigns are the
// package's slowest runs.
var (
	quickAccuracy = sync.OnceValues(func() (*AccuracyResult, error) {
		return RunAccuracy(context.Background(), quick())
	})
	table4Small = sync.OnceValues(func() (*Table4Result, error) {
		return Table4(context.Background(), Options{Faults: 120, Seed: 7})
	})
)

func TestFig8Speedups(t *testing.T) {
	r, err := Fig8(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 { // 3 sizes x 2 workloads
		t.Fatalf("cells = %d", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.Final < c.ACE {
			t.Errorf("%s/%s: final %.1f < ACE %.1f", c.Workload, c.Size, c.Final, c.ACE)
		}
		if c.ACE < 1 {
			t.Errorf("%s/%s: ACE speedup %.1f < 1", c.Workload, c.Size, c.ACE)
		}
	}
	if !strings.Contains(r.Render(), "average") {
		t.Error("render missing averages")
	}
}

func TestRFSpeedupGrowsWithRegisters(t *testing.T) {
	// More physical registers -> lower AVF -> stronger ACE pruning
	// (paper Fig 8: 93x for 256 regs vs 44x for 64).
	r, err := Fig8(context.Background(), Options{Faults: 1500, Workloads: []string{"qsort"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bySize := map[string]float64{}
	for _, c := range r.Cells {
		bySize[c.Size] = c.ACE
	}
	if bySize["256regs"] <= bySize["64regs"] {
		t.Errorf("ACE speedup should grow with RF size: 256regs %.1f vs 64regs %.1f",
			bySize["256regs"], bySize["64regs"])
	}
}

func TestFig12SPEC(t *testing.T) {
	r, err := Fig12(context.Background(), Options{Faults: 300, Workloads: []string{"mcf", "astar"}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 6 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
}

func TestFig13Scaling(t *testing.T) {
	// The §4.4.2.4 effect needs an initial list large enough to start
	// saturating the (RIP, uPC, byte) groups: a 4x larger list should
	// then grow the injected set sub-linearly and the speedup
	// super-linearly.
	r, err := Fig13(context.Background(), Options{Faults: 2000, ScaleFactor: 4, Workloads: []string{"qsort"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.InjectedScale >= 4 {
			t.Errorf("%s: injected scaled %.2fx for a 4x list (no group reuse)", row.Size, row.InjectedScale)
		}
	}
	if r.AvgScaleUp <= 1.0 {
		t.Errorf("average speedup scale %.2f, want > 1 at saturating list sizes", r.AvgScaleUp)
	}
	if !strings.Contains(r.Render(), "Fig 13") {
		t.Error("render")
	}
}

func TestAccuracySmall(t *testing.T) {
	o := Options{Faults: 250, Workloads: []string{"sha"}, Seed: 4}
	r, err := RunAccuracy(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Campaigns) != 9 { // 9 sizes x 1 workload
		t.Fatalf("campaigns = %d", len(r.Campaigns))
	}
	for _, c := range r.Campaigns {
		if c.Homog.Fine < 0.5 {
			t.Errorf("%s/%s: homogeneity %.2f implausibly low", c.Workload, c.Size, c.Homog.Fine)
		}
		if got := c.MerlinPostACE.Total(); got != c.PostACE {
			t.Errorf("%s/%s: extrapolated %d of %d post-ACE faults", c.Workload, c.Size, got, c.PostACE)
		}
		if got := c.BaselineFull.Total(); got != c.InitialFaults {
			t.Errorf("%s/%s: baseline dist covers %d of %d", c.Workload, c.Size, got, c.InitialFaults)
		}
		if c.MerlinInjected > c.PostACE {
			t.Errorf("%s/%s: injected more than post-ACE", c.Workload, c.Size)
		}
	}
	for _, render := range []string{r.RenderFig6(), r.RenderFig7(), r.RenderFig14(),
		r.RenderFig15(), r.RenderFig16(), r.RenderFig17(), r.RenderTheory()} {
		if render == "" {
			t.Error("empty render")
		}
	}
}

func TestFullBaselineAgreesWithAssumedACE(t *testing.T) {
	// The comprehensive campaign injects the ACE-pruned faults too; each
	// must come out Masked, the soundness MeRLiN's extrapolation relies on.
	r, err := quickAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Campaigns) != 18 { // 9 sizes x 2 workloads
		t.Fatalf("campaigns = %d", len(r.Campaigns))
	}
	for _, c := range r.Campaigns {
		assumed := c.FullPostACE
		assumed.AddN(campaign.Masked, c.ACEMasked)
		if c.BaselineFull != assumed {
			t.Errorf("%s/%s: injected %v vs assumed %v", c.Workload, c.Size, c.BaselineFull, assumed)
		}
	}
}

func TestTable3(t *testing.T) {
	s := Table3()
	if !strings.Contains(s, "MeRLiN") || !strings.Contains(s, "Relyzer") {
		t.Error("table 3 render incomplete")
	}
}

func TestTable3Magnitudes(t *testing.T) {
	m := DefaultExhaustiveModel()
	rows := m.Table3()
	// The paper quotes ~1e13 exhaustive, 1e10 gain, ~3e9 years, ~4 months
	// for MeRLiN; our computed scenario must land within an order of
	// magnitude of each.
	mer := rows[0]
	if mer.Exhaustive < 1e13 || mer.Exhaustive > 1e15 {
		t.Errorf("MeRLiN exhaustive = %e", mer.Exhaustive)
	}
	if mer.Gain < 1e10 || mer.Gain > 1e12 {
		t.Errorf("MeRLiN gain = %e", mer.Gain)
	}
	if y := years(mer.ExhaustiveTime); y < 1e9 || y > 1e12 {
		t.Errorf("MeRLiN exhaustive time = %e years", y)
	}
	if mo := months(mer.RemainingTime); mo < 1 || mo > 12 {
		t.Errorf("MeRLiN remaining time = %v months", mo)
	}
	rel := rows[1]
	if rel.Gain < 1e4 || rel.Gain > 1e6 {
		t.Errorf("Relyzer gain = %e", rel.Gain)
	}
	if y := years(rel.RemainingTime); y < 3 || y > 300 {
		t.Errorf("Relyzer remaining time = %v years", y)
	}
	if m.String() == "" {
		t.Error("empty render")
	}
}

func TestTable4Small(t *testing.T) {
	r, err := table4Small()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Dist[campaign.SDC] != 0 || row.Dist[campaign.Timeout] != 0 {
			t.Errorf("%s/%s: truncated scheme has no SDC/Timeout: %v", row.Workload, row.Method, row.Dist)
		}
	}
	// Baseline vs MeRLiN per workload: distributions must be close.
	for i := 0; i < len(r.Rows); i += 2 {
		if worst := inaccuracyMax(r.Rows[i].Dist, r.Rows[i+1].Dist); worst > 15 {
			t.Errorf("%s: baseline vs MeRLiN differ by %.1fpp", r.Rows[i].Workload, worst)
		}
	}
	if !strings.Contains(r.Render(), "Table 4") {
		t.Error("render")
	}
}

func TestTable1(t *testing.T) {
	if !strings.Contains(Table1(), "256") {
		t.Error("table 1 render")
	}
}

func TestFig11Timing(t *testing.T) {
	r, err := Fig11(context.Background(), Options{Faults: 150, Workloads: []string{"sha"}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BaselineSeconds <= row.MerlinSeconds {
			t.Errorf("%s: baseline %.1fs not slower than MeRLiN %.1fs",
				row.Structure, row.BaselineSeconds, row.MerlinSeconds)
		}
	}
}

func TestAblation(t *testing.T) {
	r, err := Ablation(context.Background(), Options{Faults: 600, Workloads: []string{"sha"}, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	step1, paper := r.Rows[0], r.Rows[1]
	if step1.Injected >= paper.Injected {
		t.Errorf("step-1-only must inject fewer: %d vs %d", step1.Injected, paper.Injected)
	}
	// More representatives must never hurt accuracy on the same faults.
	if r.Rows[3].WorstDiff > paper.WorstDiff+1e-9 {
		t.Errorf("4 reps worst diff %.2f exceeds paper config %.2f", r.Rows[3].WorstDiff, paper.WorstDiff)
	}
	if !strings.Contains(r.Render(), "Ablation") {
		t.Error("render")
	}
}
