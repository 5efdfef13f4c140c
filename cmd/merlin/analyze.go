package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"merlin/internal/campaign"
	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/guestflow"
	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// runAnalyze implements `merlin analyze`: run the guestflow static
// dataflow engine (CFG recovery, may-liveness) over guest programs,
// cross-check its may-live bounds
// against the dynamic ACE tracer's vulnerable intervals, and report how
// many sampled RF fault sites the static must-dead pre-pruner would
// classify masked without a dynamic interval lookup.
//
//	merlin analyze                         # every registered workload
//	merlin analyze -workload qsort -v
//	merlin analyze -crosscheck -gen 100    # CI gate: built-ins + 100 stress kernels
//
// With -crosscheck any static/dynamic disagreement is fatal (exit 1): a
// dynamic read outside the static may-live bound means one of
// internal/guestflow or internal/lifetime is wrong, and the diagnostic
// names the interval, the reading instruction and a disassembly window.
func runAnalyze(args []string) int {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "analyze a single workload (default: every registered workload)")
		genN     = fs.Int("gen", 0, "also analyze N conformance/gen stress kernels (classes round-robin, seeds seed..seed+N-1)")
		seed     = fs.Int64("seed", 1, "base seed for -gen kernels and RF fault-site sampling")
		faults   = fs.Int("faults", 1000, "RF fault sites sampled per program to measure the statically prunable fraction")
		crossck  = fs.Bool("crosscheck", false, "fail (exit 1) on any static/dynamic cross-check violation")
		regs     = fs.Int("regs", 256, "physical integer registers")
		sq       = fs.Int("sq", 64, "store-queue (and load-queue) entries")
		l1d      = fs.Int("l1d", 32<<10, "L1 data cache bytes")
		verbose  = fs.Bool("v", false, "print one line per program")
	)
	fs.Parse(args)

	cfg := cpu.DefaultConfig().WithRF(*regs).WithSQ(*sq).WithL1D(*l1d)

	type job struct {
		name string
		prog *isa.Program
	}
	var jobs []job
	if *workload != "" {
		w, err := workloads.Get(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			return 2
		}
		jobs = append(jobs, job{w.Name, w.Program()})
	} else {
		for _, name := range workloads.Names("") {
			jobs = append(jobs, job{name, workloads.MustGet(name).Program()})
		}
	}
	classes := gen.Classes()
	for k := 0; k < *genN; k++ {
		prog := gen.Kernel(classes[k%len(classes)], uint64(*seed)+uint64(k))
		jobs = append(jobs, job{prog.Name, prog})
	}

	var (
		totIntervals, totViolations int
		totFaults, totPruned        int
		analysisWall                time.Duration
		start                       = time.Now()
	)
	for _, j := range jobs {
		runner := campaign.NewRunner(campaign.Target{Cfg: cfg, Prog: j.prog})
		golden, err := runner.RunGolden(lifetime.StructRF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyze: %s: %v\n", j.name, err)
			return 1
		}
		entries, entryBits := cfg.StructureGeometry(lifetime.StructRF)
		log := golden.Tracer.Log(lifetime.StructRF)
		dyn := golden.Tracer.Analysis(lifetime.StructRF)

		// The timed region is exactly what WithStaticPrune adds to a
		// campaign: the static analysis plus the per-fault prune pass.
		t0 := time.Now()
		g := guestflow.Analyze(j.prog)
		sites := sampling.Generate(lifetime.StructRF, entries, entryBits,
			golden.Result.Cycles, *faults, *seed)
		premasked, ps := guestflow.PruneRF(g, log, sites)
		analysisWall += time.Since(t0)

		violations := guestflow.CrossCheck(g, dyn, log)
		st := g.ComputeStats()

		totIntervals += len(dyn.Intervals)
		totViolations += len(violations)
		totFaults += len(sites)
		totPruned += ps.Pruned()

		if *verbose || len(violations) > 0 {
			fmt.Printf("%-14s insts %4d reach %4d branches %3d jumps %2d indirect %2d (fan %3d) defs %4d mayLive %4.1f mustDead %4.1f | intervals %5d violations %d | prunable %4d/%d (%.1f%%)\n",
				j.name, st.Instructions, st.Reachable, st.Branches, st.DirectJumps,
				st.IndirectOps, st.IndirectFan, st.Defs, st.AvgMayLive, st.AvgMustDead,
				len(dyn.Intervals), len(violations),
				ps.Pruned(), len(sites), 100*float64(ps.Pruned())/float64(max(1, len(sites))))
		}
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "analyze: %s: %v\n", j.name, &v)
		}
		// Sanity: every statically pruned fault must also be dynamically
		// masked — this is the same invariant the session verifies before
		// trusting the pruner, checked here over the sampled sites.
		for i, pm := range premasked {
			if !pm {
				continue
			}
			f := sites[i]
			if _, ok := dyn.Find(f.Entry, f.Byte(), f.Cycle); ok {
				totViolations++
				fmt.Fprintf(os.Stderr,
					"analyze: %s: static pruner disagrees with dynamic analysis on fault %v (statically must-dead, dynamically vulnerable)\n",
					j.name, f)
			}
		}
	}

	pct := 100 * float64(totPruned) / float64(max(1, totFaults))
	result := "PASS"
	if totViolations > 0 {
		result = "FAIL"
	}
	fmt.Printf("analyze: %d programs, %d dynamic intervals cross-checked, %d violations; %d/%d sampled RF fault sites statically prunable (%.1f%%) in %v\n",
		len(jobs), totIntervals, totViolations, totPruned, totFaults, pct, time.Since(start).Round(time.Millisecond))
	fmt.Printf("staticprune-summary: programs=%d intervals=%d violations=%d faults=%d pruned=%d pct=%.2f analysis_ms=%.3f result=%s\n",
		len(jobs), totIntervals, totViolations, totFaults, totPruned, pct,
		float64(analysisWall.Nanoseconds())/1e6, result)

	if *crossck && totViolations > 0 {
		return 1
	}
	return 0
}
