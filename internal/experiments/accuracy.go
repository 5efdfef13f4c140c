package experiments

import (
	"context"
	"fmt"

	"merlin"

	"merlin/internal/campaign"
	"merlin/internal/experiments/relyzer"
	"merlin/internal/lifetime"
	reduction "merlin/internal/merlin"
	"merlin/internal/stats"
)

// AccuracyCampaign holds everything one (workload, structure-size)
// campaign contributes to Figs 6, 7, 14, 15, 16 and 17: the comprehensive
// campaign's ground truth plus the MeRLiN report and the Relyzer-heuristic
// reduction evaluated on it.
type AccuracyCampaign struct {
	Workload string
	Size     string
	Struct   lifetime.StructureID

	InitialFaults int
	ACEMasked     int
	PostACE       int

	// Ground truth: the comprehensive outcomes of the post-ACE faults.
	FullPostACE campaign.Dist
	// MeRLiN: representatives only, extrapolated.
	MerlinPostACE  campaign.Dist
	MerlinInjected int
	Homog          reduction.HomogeneityReport

	// Full-list (Fig 15) distributions: the comprehensive campaign over
	// the whole initial list, and MeRLiN's report.
	BaselineFull campaign.Dist
	MerlinFull   campaign.Dist

	// FIT accounting (Fig 16).
	BaselineFIT float64
	MerlinFIT   float64
	ACELikeFIT  float64

	// Relyzer control-equivalence heuristic (Fig 17).
	RelyzerPostACE      campaign.Dist
	RelyzerInjected     int
	RelyzerLargeGroups  int
	RelyzerSinglePilots int
	MerlinLargeGroups   int
	MerlinSinglePilots  int

	// Theoretical analysis inputs (§4.4.5).
	GroupSizes     []int
	GroupNonMasked []int
}

// runAccuracy executes one campaign as a user would, Run for MeRLiN's
// report and Baseline for the comprehensive one, and evaluates every method
// against the baseline's per-fault outcomes.
func runAccuracy(ctx context.Context, o Options, wl string, z StructSize) (*AccuracyCampaign, error) {
	s, err := merlin.Start(ctx, wl, o.sessionOptions(z.Configure(defaultCPU()), z.Structure, o.Faults)...)
	if err != nil {
		return nil, err
	}
	rep, err := s.Run(ctx)
	if err != nil {
		return nil, err
	}
	base, err := s.Baseline(ctx)
	if err != nil {
		return nil, err
	}
	a := s.Artifacts()
	red, outcomes := a.Red, base.Outcomes
	rel := relyzer.Reduce(a.Analysis, a.Faults, a.Golden.Tracer.Branches, relyzer.DefaultDepth, o.Seed)
	ac := &AccuracyCampaign{
		Workload:        wl,
		Size:            z.Label,
		Struct:          z.Structure,
		InitialFaults:   rep.InitialFaults,
		ACEMasked:       rep.ACEMasked,
		PostACE:         rep.PostACE,
		FullPostACE:     postACE(red, outcomes),
		MerlinPostACE:   red.PostACEExtrapolate(rep.RepOutcomes),
		MerlinInjected:  rep.Injected,
		Homog:           red.Homogeneity(outcomes),
		BaselineFull:    base.Dist,
		MerlinFull:      rep.Dist,
		BaselineFIT:     base.FIT,
		MerlinFIT:       rep.FIT,
		ACELikeFIT:      rep.ACELikeFIT,
		RelyzerPostACE:  rel.PostACEExtrapolate(repOutcomes(rel, outcomes)),
		RelyzerInjected: rel.ReducedCount(),
	}
	ac.RelyzerLargeGroups, ac.RelyzerSinglePilots = relyzer.SinglePilotLargeGroups(rel, 20)
	ac.MerlinLargeGroups, ac.MerlinSinglePilots = relyzer.SinglePilotLargeGroups(red, 20)

	// Group statistics for the theoretical analysis.
	for _, g := range red.Groups {
		nm := 0
		for _, fi := range g.Members {
			if outcomes[fi] != campaign.Masked {
				nm++
			}
		}
		ac.GroupSizes = append(ac.GroupSizes, len(g.Members))
		ac.GroupNonMasked = append(ac.GroupNonMasked, nm)
	}
	return ac, nil
}

// postACE is the ground truth a reduction's post-ACE extrapolation is held
// to: the comprehensive outcomes of the faults its pruning kept.
func postACE(red *reduction.Reduction, outcomes []campaign.Outcome) campaign.Dist {
	var d campaign.Dist
	for _, fi := range red.HitFaults {
		d.Add(outcomes[fi])
	}
	return d
}

// repOutcomes reads a reduction's representatives' outcomes, in Reduced()
// order, out of the comprehensive campaign's: every reduction of one fault
// list is evaluated against one Baseline.
func repOutcomes(red *reduction.Reduction, outcomes []campaign.Outcome) []campaign.Outcome {
	reps := make([]campaign.Outcome, 0, red.ReducedCount())
	for _, g := range red.Groups {
		for _, rep := range g.Reps {
			reps = append(reps, outcomes[rep])
		}
	}
	return reps
}

// AccuracyResult holds all accuracy campaigns plus the figure renderers.
type AccuracyResult struct {
	Faults    int
	Campaigns []*AccuracyCampaign
}

// RunAccuracy executes the accuracy campaigns: every MiBench workload on
// every structure size, each a MeRLiN campaign plus its comprehensive
// baseline. This is the heavyweight experiment; Figs 6, 7, 14, 15, 16, 17
// and the §4.4.5 report all render from its result.
func RunAccuracy(ctx context.Context, o Options) (*AccuracyResult, error) {
	o = o.withDefaults()
	res := &AccuracyResult{Faults: o.Faults}
	for _, z := range o.filterSizes(allSizes()) {
		for _, wl := range o.workloadSet("mibench") {
			ac, err := runAccuracy(ctx, o, wl, z)
			if err != nil {
				return nil, fmt.Errorf("accuracy %s/%s: %w", wl, z.Label, err)
			}
			o.logf("accuracy %-14s %-10s postACE %4d -> %3d injected, homog %.3f/%.3f, worst diff %.2fpp",
				wl, z.Label, ac.PostACE, ac.MerlinInjected, ac.Homog.Fine, ac.Homog.Coarse,
				inaccuracyMax(ac.MerlinPostACE, ac.FullPostACE))
			res.Campaigns = append(res.Campaigns, ac)
		}
	}
	return res, nil
}

func (r *AccuracyResult) bySize() (order []string, m map[string][]*AccuracyCampaign) {
	m = map[string][]*AccuracyCampaign{}
	for _, c := range r.Campaigns {
		if len(m[c.Size]) == 0 {
			order = append(order, c.Size)
		}
		m[c.Size] = append(m[c.Size], c)
	}
	return order, m
}

// RenderFig6 formats the fine-grained homogeneity figure.
func (r *AccuracyResult) RenderFig6() string {
	t := &table{header: []string{"size", "workload", "groups", "avg size", "homogeneity (6-class)"}}
	order, m := r.bySize()
	for _, size := range order {
		var hs []float64
		for _, c := range m[size] {
			t.add(size, c.Workload, fmt.Sprint(c.Homog.Groups), f1(c.Homog.AvgGroupSize), f3(c.Homog.Fine))
			hs = append(hs, c.Homog.Fine)
		}
		t.add(size, "average", "", "", f3(mean(hs)))
	}
	return "Fig 6: fine-grained homogeneity (paper averages: RF 0.94, SQ 0.98, L1D 0.92)\n" + t.String()
}

// RenderFig7 formats the coarse homogeneity / perfect-group figure.
func (r *AccuracyResult) RenderFig7() string {
	t := &table{header: []string{"size", "coarse homogeneity", "% groups perfect"}}
	order, m := r.bySize()
	for _, size := range order {
		var hs, ps []float64
		for _, c := range m[size] {
			hs = append(hs, c.Homog.Coarse)
			ps = append(ps, c.Homog.PerfectShare)
		}
		t.add(size, f3(mean(hs)), pc(mean(ps)))
	}
	return "Fig 7: coarse-grained homogeneity (paper: 0.93-0.98, 88-92% perfect groups)\n" + t.String()
}

// RenderFig14 formats the post-ACE accuracy comparison.
func (r *AccuracyResult) RenderFig14() string {
	s := "Fig 14: classification on the post-ACE-like fault list, full injection vs MeRLiN\n"
	order, m := r.bySize()
	for _, size := range order {
		var full, mer campaign.Dist
		for _, c := range m[size] {
			for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
				full.AddN(o, c.FullPostACE[o])
				mer.AddN(o, c.MerlinPostACE[o])
			}
		}
		t := &table{header: append([]string{size}, classHeaders...)}
		t.add(append([]string{"full post-ACE"}, distRow(full)...)...)
		t.add(append([]string{"MeRLiN"}, distRow(mer)...)...)
		s += t.String()
	}
	return s
}

// RenderFig15 formats the comprehensive-baseline accuracy comparison.
func (r *AccuracyResult) RenderFig15() string {
	s := fmt.Sprintf("Fig 15: final classification, comprehensive baseline (%d faults) vs MeRLiN\n", r.Faults)
	order, m := r.bySize()
	for _, size := range order {
		var base, mer campaign.Dist
		for _, c := range m[size] {
			for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
				base.AddN(o, c.BaselineFull[o])
				mer.AddN(o, c.MerlinFull[o])
			}
		}
		t := &table{header: append([]string{size}, classHeaders...)}
		t.add(append([]string{"baseline"}, distRow(base)...)...)
		t.add(append([]string{"MeRLiN"}, distRow(mer)...)...)
		s += t.String()
	}
	return s
}

// RenderFig16 formats the FIT-rate comparison.
func (r *AccuracyResult) RenderFig16() string {
	t := &table{header: []string{"size", "baseline FIT", "MeRLiN FIT", "ACE-like FIT"}}
	order, m := r.bySize()
	for _, size := range order {
		var b, mm, a []float64
		for _, c := range m[size] {
			b = append(b, c.BaselineFIT)
			mm = append(mm, c.MerlinFIT)
			a = append(a, c.ACELikeFIT)
		}
		t.add(size, f3(mean(b)), f3(mean(mm)), f3(mean(a)))
	}
	return "Fig 16: FIT rates, baseline vs MeRLiN vs ACE-like bound (0.01 FIT/bit; MiBench avg)\n" +
		t.String() + "(shape check: MeRLiN ~= baseline; ACE-like pessimistically higher)\n"
}

// RenderFig17 formats the Relyzer-heuristic comparison.
func (r *AccuracyResult) RenderFig17() string {
	s := "Fig 17: per-class inaccuracy (percentile units) vs full post-ACE injection\n"
	byStruct := map[lifetime.StructureID][]*AccuracyCampaign{}
	for _, c := range r.Campaigns {
		byStruct[c.Struct] = append(byStruct[c.Struct], c)
	}
	for _, st := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D} {
		var relWorst, merWorst []float64
		var relInj, merInj, large, single, mlarge, msingle int
		for _, c := range byStruct[st] {
			relWorst = append(relWorst, inaccuracyMax(c.RelyzerPostACE, c.FullPostACE))
			merWorst = append(merWorst, inaccuracyMax(c.MerlinPostACE, c.FullPostACE))
			relInj += c.RelyzerInjected
			merInj += c.MerlinInjected
			large += c.RelyzerLargeGroups
			single += c.RelyzerSinglePilots
			mlarge += c.MerlinLargeGroups
			msingle += c.MerlinSinglePilots
		}
		s += fmt.Sprintf("%-4s worst-class inaccuracy: Relyzer %.2fpp vs MeRLiN %.2fpp"+
			" (injected %d vs %d; large groups w/ 1 pilot: %d/%d vs %d/%d)\n",
			st, mean(relWorst), mean(merWorst), relInj, merInj, single, large, msingle, mlarge)
	}
	return s
}

// RenderTheory formats the §4.4.5 statistical analysis computed from the
// observed groups.
func (r *AccuracyResult) RenderTheory() string {
	t := &table{header: []string{"size", "mean AVF", "Var(k)", "Var(kMeRLiN)", "orders below mean", "orders (MeRLiN)"}}
	order, m := r.bySize()
	for _, size := range order {
		var sizes, nonMasked []int
		total := 0
		for _, c := range m[size] {
			sizes = append(sizes, c.GroupSizes...)
			nonMasked = append(nonMasked, c.GroupNonMasked...)
			total += c.InitialFaults
		}
		c := stats.FromObserved(total, sizes, nonMasked)
		rep := c.Analyze()
		t.add(size, fmt.Sprintf("%.5f", rep.Mean), fmt.Sprintf("%.3e", rep.VarBaseline),
			fmt.Sprintf("%.3e", rep.VarMerlin), f1(rep.OrdersBaseline), f1(rep.OrdersMerlin))
	}
	return "Theory (§4.4.5): E(k)=E(kMeRLiN); variances orders of magnitude below the mean\n" + t.String()
}
