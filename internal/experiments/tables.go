package experiments

import (
	"context"
	"fmt"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/lifetime"
	reduction "merlin/internal/merlin"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// Table3 renders the analytic exhaustive-list comparison of MeRLiN vs
// Relyzer (§4.2).
func Table3() string {
	return "Table 3: methods vs the exhaustive fault list (1e9-cycle benchmark, L1D 32KB + SQ 16 + RF 64)\n" +
		DefaultExhaustiveModel().String()
}

// Table4Row is one method's classification in the truncated-run scheme.
type Table4Row struct {
	Workload string
	Method   string
	Injected int
	Dist     campaign.Dist
}

// Table4Result reproduces the truncated-Simpoint accuracy study.
type Table4Result struct {
	Rows []Table4Row
	Cut  map[string]uint64
}

// Render formats Table 4.
func (r *Table4Result) Render() string {
	t := &table{header: []string{"workload", "method", "injected", "Masked", "DUE", "Crash", "Assert", "Unknown"}}
	for _, row := range r.Rows {
		t.add(row.Workload, row.Method, fmt.Sprint(row.Injected),
			pc(row.Dist.Share(campaign.Masked)), pc(row.Dist.Share(campaign.DUE)),
			pc(row.Dist.Share(campaign.Crash)), pc(row.Dist.Share(campaign.Assert)),
			pc(row.Dist.Share(campaign.Unknown)))
	}
	return "Table 4: truncated-interval accuracy, gcc & bzip2, RF, 128regs/16entries/32KB\n" +
		t.String() +
		"(paper: gcc 85.08/0.06-0.07/3.1-3.7/0.01/11.2-11.7; bzip2 84.98/0.3-0.8/3.5-4.1/0.02-0.03/10.1-11.2)\n"
}

// Table4 runs the truncated-run experiment: gcc and bzip2 cut mid-execution
// (standing in for the Simpoint interval end), register-file faults,
// comparing the comprehensive truncated baseline against MeRLiN with the
// truncated classification {Masked, DUE, Crash, Assert, Unknown}.
func Table4(ctx context.Context, o Options) (*Table4Result, error) {
	o = o.withDefaults()
	res := &Table4Result{Cut: map[string]uint64{}}
	for _, wl := range []string{"gcc", "bzip2"} {
		w, err := workloads.Get(wl)
		if err != nil {
			return nil, err
		}
		runner := campaign.NewRunner(campaign.Target{Cfg: specConfig(), Prog: w.Program()})
		runner.Workers = o.Workers
		full, err := runner.RunGolden()
		if err != nil {
			return nil, err
		}
		cut := full.Result.Cycles / 2
		res.Cut[wl] = cut
		tg, err := runner.RunGoldenTruncated(cut, lifetime.StructRF)
		if err != nil {
			return nil, err
		}

		analysis := tg.Tracer.Analysis(lifetime.StructRF)
		faults := sampling.Generate(lifetime.StructRF, analysis.Entries, analysis.EntryBytes*8, cut, o.Faults, o.Seed)

		baseRes, err := runner.Run(ctx, faults, nil, campaign.Plan{Cut: tg})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table4Row{
			Workload: wl, Method: "baseline", Injected: len(faults), Dist: baseRes.Dist,
		})

		red := reduction.Reduce(analysis, faults, reduction.DefaultOptions())
		repRes, err := runner.Run(ctx, red.Reduced(), nil, campaign.Plan{Cut: tg})
		if err != nil {
			return nil, err
		}
		merDist := red.Extrapolate(repRes.Outcomes)
		res.Rows = append(res.Rows, Table4Row{
			Workload: wl, Method: "MeRLiN", Injected: red.ReducedCount(), Dist: merDist,
		})
		o.logf("Table 4 %-6s cut %d: baseline %v", wl, cut, baseRes.Dist)
		o.logf("Table 4 %-6s          MeRLiN (%d inj) %v", wl, red.ReducedCount(), merDist)
	}
	return res, nil
}

// Table1 renders the baseline core configuration for reference.
func Table1() string {
	c := cpu.DefaultConfig()
	t := &table{header: []string{"parameter", "value"}}
	t.add("pipeline", "out-of-order")
	t.add("physical int registers", fmt.Sprintf("%d (also 128/64 in sweeps)", c.PhysRegs))
	t.add("issue queue", fmt.Sprint(c.IQEntries))
	t.add("load/store queue", fmt.Sprintf("%d load + %d store (also 32/16)", c.LQEntries, c.SQEntries))
	t.add("ROB", fmt.Sprint(c.ROBEntries))
	t.add("functional units", fmt.Sprintf("%d int ALU, %d complex, %d ld, %d st ports",
		c.IntALUs, c.IntMulDiv, c.LoadPorts, c.StorePorts))
	t.add("L1I", fmt.Sprintf("%dKB %d-way %dB lines", c.L1I.Size>>10, c.L1I.Ways, c.L1I.LineSize))
	t.add("L1D", fmt.Sprintf("%dKB %d-way %dB lines (also 64/16KB)", c.L1D.Size>>10, c.L1D.Ways, c.L1D.LineSize))
	t.add("L2", fmt.Sprintf("%dMB %d-way %dB lines", c.L2.Size>>20, c.L2.Ways, c.L2.LineSize))
	t.add("branch predictor", "tournament (local+gshare+chooser), 4K BTB, 16 RAS")
	return "Table 1: baseline core configuration\n" + t.String()
}
