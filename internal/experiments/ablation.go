package experiments

import (
	"context"
	"fmt"

	"merlin"

	reduction "merlin/internal/merlin"
)

// AblationRow is one grouping-policy variant evaluated against the
// comprehensive campaign's post-ACE outcomes.
type AblationRow struct {
	Variant   string
	Injected  int
	PostACE   int
	Speedup   float64
	WorstDiff float64 // worst per-class difference vs ground truth, pp
	AvgDiff   float64
}

// AblationResult quantifies the contribution of MeRLiN's design choices:
// step-2 byte sub-grouping (§3.2.2) and the number of representatives
// injected per final group.
type AblationResult struct {
	Workloads []string
	Rows      []AblationRow
}

// Render formats the ablation table.
func (r *AblationResult) Render() string {
	t := &table{header: []string{"variant", "postACE", "injected", "speedup", "worst diff (pp)", "avg diff (pp)"}}
	for _, row := range r.Rows {
		t.add(row.Variant, fmt.Sprint(row.PostACE), fmt.Sprint(row.Injected),
			f1(row.Speedup), f2(row.WorstDiff), f2(row.AvgDiff))
	}
	return fmt.Sprintf("Ablation: grouping design choices (RF, 128 regs, workloads %v)\n%s",
		r.Workloads, t)
}

// Ablation evaluates grouping variants on the register file: step 1 only
// (no byte sub-grouping), the paper's configuration, and 2/4
// representatives per group.
func Ablation(ctx context.Context, o Options) (*AblationResult, error) {
	o = o.withDefaults()
	variants := []struct {
		name string
		opts reduction.Options
	}{
		{"step1-only (no byte grouping)", reduction.Options{RepsPerGroup: 1, ByteGrouping: false}},
		{"paper (byte grouping, 1 rep)", reduction.Options{RepsPerGroup: 1, ByteGrouping: true}},
		{"2 reps per group", reduction.Options{RepsPerGroup: 2, ByteGrouping: true}},
		{"4 reps per group", reduction.Options{RepsPerGroup: 4, ByteGrouping: true}},
	}
	res := &AblationResult{Workloads: o.workloadSet("mibench")}
	agg := make([]AblationRow, len(variants))
	for i, v := range variants {
		agg[i].Variant = v.name
	}
	var totalInitial int

	for _, wl := range res.Workloads {
		s, err := merlin.Start(ctx, wl, o.sessionOptions(defaultCPU().WithRF(128), merlin.RF, o.Faults)...)
		if err != nil {
			return nil, err
		}
		base, err := s.Baseline(ctx)
		if err != nil {
			return nil, err
		}
		a := s.Artifacts()
		totalInitial += len(a.Faults)

		for i, v := range variants {
			red := reduction.Reduce(a.Analysis, a.Faults, v.opts)
			dist := red.PostACEExtrapolate(repOutcomes(red, base.Outcomes))
			in := reduction.Inaccuracy(dist, postACE(red, base.Outcomes))
			worst, sum := 0.0, 0.0
			for _, d := range in {
				if d > worst {
					worst = d
				}
				sum += d
			}
			agg[i].Injected += red.ReducedCount()
			agg[i].PostACE += len(red.HitFaults)
			if worst > agg[i].WorstDiff {
				agg[i].WorstDiff = worst
			}
			agg[i].AvgDiff += sum / float64(len(in))
			o.logf("ablation %-14s %-30s injected %4d worst %.2fpp", wl, v.name, red.ReducedCount(), worst)
		}
	}
	for i := range agg {
		agg[i].Speedup = float64(totalInitial) / float64(agg[i].Injected)
		agg[i].AvgDiff /= float64(len(res.Workloads))
	}
	res.Rows = agg
	return res, nil
}
