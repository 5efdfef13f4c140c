package experiments

import (
	"context"
	"fmt"
	"time"

	"merlin"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
	"merlin/internal/workloads"
)

// SpeedupCell is one bar of Figs 8-10/12: the fault-list reduction achieved
// for one workload on one structure size.
type SpeedupCell struct {
	Workload string
	Size     string
	Initial  int
	PostACE  int
	Injected int
	ACE      float64 // speedup from the ACE-like step alone
	Final    float64 // total speedup after grouping
}

// SpeedupResult is one speedup figure.
type SpeedupResult struct {
	Figure string
	Title  string
	Cells  []SpeedupCell
}

// Render formats the figure as a table with per-size averages, matching
// the paper's bar-chart content.
func (r *SpeedupResult) Render() string {
	t := &table{header: []string{"size", "workload", "initial", "postACE", "injected", "ACE-like x", "final x"}}
	bySize := map[string][]SpeedupCell{}
	var order []string
	for _, c := range r.Cells {
		if len(bySize[c.Size]) == 0 {
			order = append(order, c.Size)
		}
		bySize[c.Size] = append(bySize[c.Size], c)
	}
	for _, size := range order {
		var aces, finals []float64
		for _, c := range bySize[size] {
			t.add(c.Size, c.Workload, fmt.Sprint(c.Initial), fmt.Sprint(c.PostACE),
				fmt.Sprint(c.Injected), f1(c.ACE), f1(c.Final))
			aces = append(aces, c.ACE)
			finals = append(finals, c.Final)
		}
		t.add(size, "average", "", "", "", f1(mean(aces)), f1(mean(finals)))
	}
	return fmt.Sprintf("%s: %s\n%s", r.Figure, r.Title, t)
}

// reduceOnly runs phases 1-2 for one campaign on cfg (speedups need no
// injection), via a Session so the sweep is cancellable between phases.
func reduceOnly(ctx context.Context, o Options, wl string, cfg cpu.Config, z StructSize, faults int) (SpeedupCell, error) {
	s, err := merlin.Start(ctx, wl, o.sessionOptions(cfg, z.Structure, faults)...)
	if err != nil {
		return SpeedupCell{}, err
	}
	if err := s.Preprocess(ctx); err != nil {
		return SpeedupCell{}, err
	}
	red, err := s.Reduce()
	if err != nil {
		return SpeedupCell{}, err
	}
	return SpeedupCell{
		Workload: wl,
		Size:     z.Label,
		Initial:  len(s.Artifacts().Faults),
		PostACE:  len(red.HitFaults),
		Injected: red.ReducedCount(),
		ACE:      red.ACESpeedup(),
		Final:    red.FinalSpeedup(),
	}, nil
}

func (o Options) workloadSet(suite string) []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	var names []string
	var set []*workloads.Workload
	if suite == "spec" {
		set = workloads.SPEC()
	} else {
		set = workloads.MiBench()
	}
	for _, w := range set {
		names = append(names, w.Name)
	}
	return names
}

func (o Options) speedupFigure(ctx context.Context, fig, title string, sizes []StructSize, suite string) (*SpeedupResult, error) {
	o = o.withDefaults()
	res := &SpeedupResult{Figure: fig, Title: title}
	for _, z := range o.filterSizes(sizes) {
		for _, wl := range o.workloadSet(suite) {
			cell, err := reduceOnly(ctx, o, wl, z.Configure(defaultCPU()), z, o.Faults)
			if err != nil {
				return nil, fmt.Errorf("%s %s/%s: %w", fig, wl, z.Label, err)
			}
			o.logf("%s %-14s %-10s ACE %6.1fx final %7.1fx", fig, wl, z.Label, cell.ACE, cell.Final)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// Fig8 reproduces the register-file speedups (256/128/64 regs, MiBench).
func Fig8(ctx context.Context, o Options) (*SpeedupResult, error) {
	return o.speedupFigure(ctx, "Fig 8", "MeRLiN speedup, physical register file, 10 MiBench",
		sizesFor(lifetime.StructRF), "mibench")
}

// Fig9 reproduces the store-queue speedups (64/32/16 entries, MiBench).
func Fig9(ctx context.Context, o Options) (*SpeedupResult, error) {
	return o.speedupFigure(ctx, "Fig 9", "MeRLiN speedup, store queue, 10 MiBench",
		sizesFor(lifetime.StructSQ), "mibench")
}

// Fig10 reproduces the L1 data cache speedups (64/32/16KB, MiBench).
func Fig10(ctx context.Context, o Options) (*SpeedupResult, error) {
	return o.speedupFigure(ctx, "Fig 10", "MeRLiN speedup, L1 data cache, 10 MiBench",
		sizesFor(lifetime.StructL1D), "mibench")
}

// Fig12 reproduces the SPEC speedups on the 128-reg / 16-entry / 32KB
// configuration, for all three structures.
func Fig12(ctx context.Context, o Options) (*SpeedupResult, error) {
	o = o.withDefaults()
	res := &SpeedupResult{Figure: "Fig 12", Title: "MeRLiN speedup, RF/SQ/L1D, 10 SPEC (128regs/16entries/32KB)"}
	targets := o.filterSizes([]StructSize{
		{lifetime.StructRF, "RF", nil},
		{lifetime.StructSQ, "SQ", nil},
		{lifetime.StructL1D, "L1D", nil},
	})
	for _, wl := range o.workloadSet("spec") {
		for _, z := range targets {
			cell, err := reduceOnly(ctx, o, wl, specConfig(), z, o.Faults)
			if err != nil {
				return nil, fmt.Errorf("Fig 12 %s/%s: %w", wl, z.Label, err)
			}
			o.logf("Fig 12 %-12s %-4s ACE %6.1fx final %7.1fx", wl, z.Label, cell.ACE, cell.Final)
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// ScalingRow is one bar pair of Fig 13.
type ScalingRow struct {
	Size                string
	BaseACE, BaseFinal  float64
	BigACE, BigFinal    float64
	SpeedupScale        float64 // BigFinal / BaseFinal
	InjectedScale       float64 // how many more faults MeRLiN injects
	BaseFaults, BigList int
}

// ScalingResult is Fig 13: how speedup scales with a larger initial list.
type ScalingResult struct {
	Rows       []ScalingRow
	AvgScaleUp float64
	AvgInject  float64
}

// Render formats Fig 13.
func (r *ScalingResult) Render() string {
	t := &table{header: []string{"config", "F", "final x", "10F", "final x", "speedup scale", "injected scale"}}
	for _, row := range r.Rows {
		t.add(row.Size, fmt.Sprint(row.BaseFaults), f1(row.BaseFinal),
			fmt.Sprint(row.BigList), f1(row.BigFinal), f2(row.SpeedupScale), f2(row.InjectedScale))
	}
	return fmt.Sprintf("Fig 13: speedup scaling with initial list size (10 MiBench avg)\n%s"+
		"average speedup scale %.2fx (paper: 3.46x), injected scale %.2fx (paper: 2.89x)\n",
		t, r.AvgScaleUp, r.AvgInject)
}

// Fig13 reproduces the scaling study: the same campaigns with a
// ScaleFactor-times larger initial fault list.
func Fig13(ctx context.Context, o Options) (*ScalingResult, error) {
	o = o.withDefaults()
	res := &ScalingResult{}
	var scales, injects []float64
	for _, z := range o.filterSizes(allSizes()) {
		var baseACE, baseFin, bigACE, bigFin []float64
		var baseInj, bigInj int
		for _, wl := range o.workloadSet("mibench") {
			base, err := reduceOnly(ctx, o, wl, z.Configure(defaultCPU()), z, o.Faults)
			if err != nil {
				return nil, err
			}
			big, err := reduceOnly(ctx, o, wl, z.Configure(defaultCPU()), z, o.Faults*o.ScaleFactor)
			if err != nil {
				return nil, err
			}
			baseACE = append(baseACE, base.ACE)
			baseFin = append(baseFin, base.Final)
			bigACE = append(bigACE, big.ACE)
			bigFin = append(bigFin, big.Final)
			baseInj += base.Injected
			bigInj += big.Injected
		}
		row := ScalingRow{
			Size:       z.Label,
			BaseACE:    mean(baseACE),
			BaseFinal:  mean(baseFin),
			BigACE:     mean(bigACE),
			BigFinal:   mean(bigFin),
			BaseFaults: o.Faults,
			BigList:    o.Faults * o.ScaleFactor,
		}
		row.SpeedupScale = row.BigFinal / row.BaseFinal
		row.InjectedScale = float64(bigInj) / float64(baseInj)
		o.logf("Fig 13 %-10s final %6.1fx -> %7.1fx (scale %.2f)", z.Label, row.BaseFinal, row.BigFinal, row.SpeedupScale)
		res.Rows = append(res.Rows, row)
		scales = append(scales, row.SpeedupScale)
		injects = append(injects, row.InjectedScale)
	}
	res.AvgScaleUp = mean(scales)
	res.AvgInject = mean(injects)
	return res, nil
}

// Fig11Result is the estimation-time comparison.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11Row aggregates one structure's campaigns across all sizes and
// MiBench workloads: serial injection time of the comprehensive baseline
// vs MeRLiN, extrapolated from measured per-injection cost.
type Fig11Row struct {
	Structure       string
	BaselineRuns    int
	MerlinRuns      int
	SecPerRun       float64
	BaselineSeconds float64
	MerlinSeconds   float64
}

// Render formats Fig 11 in the paper's "months" unit.
func (r *Fig11Result) Render() string {
	t := &table{header: []string{"structure", "baseline runs", "merlin runs", "s/run", "baseline", "merlin"}}
	var bTot, mTot float64
	for _, row := range r.Rows {
		t.add(row.Structure, fmt.Sprint(row.BaselineRuns), fmt.Sprint(row.MerlinRuns),
			fmt.Sprintf("%.4f", row.SecPerRun),
			fmtDur(row.BaselineSeconds), fmtDur(row.MerlinSeconds))
		bTot += row.BaselineSeconds
		mTot += row.MerlinSeconds
	}
	t.add("total", "", "", "", fmtDur(bTot), fmtDur(mTot))
	return "Fig 11: serial estimation time, comprehensive baseline vs MeRLiN\n" + t.String() +
		fmt.Sprintf("(paper, at 60K faults x full Gem5 runs: 40.7/77.1/82.1 months baseline vs 0.65/0.49/1.28 MeRLiN)\n")
}

func fmtDur(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d > 48*time.Hour:
		return fmt.Sprintf("%.1fd", sec/86400)
	case d > 2*time.Hour:
		return fmt.Sprintf("%.1fh", sec/3600)
	case d > 2*time.Minute:
		return fmt.Sprintf("%.1fm", sec/60)
	default:
		return fmt.Sprintf("%.1fs", sec)
	}
}

// Fig11 measures per-injection cost on a sample and extrapolates the
// serial wall-clock of baseline vs MeRLiN campaigns over all MiBench
// workloads and sizes of each structure.
func Fig11(ctx context.Context, o Options) (*Fig11Result, error) {
	o = o.withDefaults()
	res := &Fig11Result{}
	for _, s := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D} {
		if !o.wantStructure(s) {
			continue
		}
		row := Fig11Row{Structure: s.String()}
		for _, z := range sizesFor(s) {
			for _, wl := range o.workloadSet("mibench") {
				cell, err := reduceOnly(ctx, o, wl, z.Configure(defaultCPU()), z, o.Faults)
				if err != nil {
					return nil, err
				}
				row.BaselineRuns += cell.Initial
				row.MerlinRuns += cell.Injected
			}
		}
		// Measure injection cost on one representative campaign. The
		// paper's per-injection cost is a full run from reset, which is
		// what Replay pays; the default strategy's forked, early-exited
		// runs would understate it.
		opts := append(o.sessionOptions(sizesFor(s)[1].Configure(defaultCPU()), s, 60),
			merlin.WithStrategy(merlin.StrategyReplay))
		sess, err := merlin.Start(ctx, o.workloadSet("mibench")[0], opts...)
		if err != nil {
			return nil, err
		}
		br, err := sess.Baseline(ctx)
		if err != nil {
			return nil, err
		}
		row.SecPerRun = br.Serial.Seconds() / float64(br.Faults)
		row.BaselineSeconds = row.SecPerRun * float64(row.BaselineRuns)
		row.MerlinSeconds = row.SecPerRun * float64(row.MerlinRuns)
		o.logf("Fig 11 %-4s: %d vs %d runs at %.4fs", row.Structure, row.BaselineRuns, row.MerlinRuns, row.SecPerRun)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// defaultCPU returns the Table 1 baseline configuration.
func defaultCPU() cpu.Config { return cpu.DefaultConfig() }
