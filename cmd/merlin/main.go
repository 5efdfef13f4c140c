// Command merlin runs one fault-injection campaign — MeRLiN-reduced,
// comprehensive baseline, or both — for a chosen workload, structure and
// configuration, and prints the resulting fault-effect classification,
// AVF, FIT and speedup.
//
// Examples:
//
//	merlin -workload qsort -structure RF -faults 2000
//	merlin -workload bzip2 -structure L1D -l1d 16384 -faults 5000 -baseline
//	merlin -workload sha -structure SQ -strategy replay
//	merlin -workload qsort -structure RF -cache ./merlind-cache
//	merlin -workload qsort -structures RF,SQ,L1D -faults 2000
//	merlin -list
//
// -structures runs a batch campaign: every listed structure is evaluated
// over a single shared golden run (one profiling pass, one artifact-cache
// entry, one checkpoint ladder), with per-structure reports bit-identical
// to standalone runs and cross-structure AVF/FIT totals at the end.
//
// -strategy selects how injection runs are simulated: forked (the default:
// fork-on-fault scheduling off a single golden sweep, each run stopped
// where it is decided) or replay (every run from reset to program end, the
// assumption-free reference). Outcomes are bit-identical across
// strategies; only wall-clock differs.
//
// -cache points at a golden-run artifact cache directory (shareable with a
// running merlind): repeated one-shot invocations on the same workload and
// core configuration skip the golden run and ACE-like analysis entirely.
//
// The campaign runs under a signal-aware context: Ctrl-C cancels it
// between injections and prints the partial classification instead of
// discarding the work.
//
// Subcommands: `merlin conformance`, `merlin chaos`, `merlin analyze`, and
// `merlin run prog.s`, which assembles and executes a µx64 assembly file on
// the simulated core (see run.go).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"merlin"

	"merlin/internal/cpu"
)

// main delegates to run so deferred profile writers execute before the
// process exits with run's status code.
func main() { os.Exit(run(flag.NewFlagSet("merlin", flag.ExitOnError), os.Args[1:])) }

// run runs the subcommand args names, or else parses the campaign flags
// from args into fs and runs one campaign.
func run(fs *flag.FlagSet, args []string) int {
	// Subcommands take over before campaign flag parsing; everything else
	// is the original campaign interface.
	if len(args) > 0 {
		switch args[0] {
		case "conformance":
			return runConformance(args[1:])
		case "chaos":
			return runChaos(args[1:])
		case "analyze":
			return runAnalyze(args[1:])
		case "run":
			return runProgram(args[1:])
		}
	}
	var (
		workload   = fs.String("workload", "qsort", "workload name (see -list)")
		structure  = fs.String("structure", "RF", "injection target: RF, SQ, or L1D")
		structures = fs.String("structures", "", "comma-separated batch targets (e.g. RF,SQ,L1D): run one batch campaign whose structures share a single golden run; overrides -structure, incompatible with -baseline")
		faults     = fs.Int("faults", 2000, "initial statistical fault list size (0 = derive from -confidence/-margin; the paper uses 60000)")
		conf       = fs.Float64("confidence", 0.998, "statistical confidence level")
		margin     = fs.Float64("margin", 0.0063, "statistical error margin")
		seed       = fs.Int64("seed", 1, "fault sampling seed")
		regs       = fs.Int("regs", 256, "physical integer registers (256/128/64)")
		sq         = fs.Int("sq", 64, "store-queue (and load-queue) entries (64/32/16)")
		l1d        = fs.Int("l1d", 32<<10, "L1 data cache bytes (65536/32768/16384)")
		baseline   = fs.Bool("baseline", false, "also run the comprehensive baseline campaign for comparison")
		workers    = fs.Int("workers", 0, "injection parallelism (0 = all cores)")
		strategy   = fs.String("strategy", merlin.StrategyForked.String(), "injection strategy: forked, or replay, the slower reference (bit-identical outcomes, different wall-clock)")
		cacheDir   = fs.String("cache", "", "golden-run artifact cache directory (empty disables; shareable with merlind)")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memProf    = fs.String("memprofile", "", "write a pprof heap profile (after the campaign) to this file")
		verbose    = fs.Bool("v", false, "print phase progress to stderr")
		list       = fs.Bool("list", false, "list available workloads and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The heap-profile defer is registered before CPU profiling starts:
	// defers run LIFO, so StopCPUProfile executes first and the GC +
	// heap-profile encoding never pollute the CPU profile's tail.
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "merlin:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "merlin:", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "merlin:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "merlin:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *list {
		fmt.Println("mibench:", strings.Join(merlin.Workloads("mibench"), " "))
		fmt.Println("spec:   ", strings.Join(merlin.Workloads("spec"), " "))
		return 0
	}

	// -structures selects batch mode: one campaign per listed structure
	// over a single shared golden run. Batch targets replace -structure.
	var batchTargets []merlin.Structure
	if *structures != "" {
		if *baseline {
			fmt.Fprintln(os.Stderr, "merlin: -baseline is a single-structure mode; drop -structures (or run per structure)")
			return 2
		}
		for _, name := range strings.Split(*structures, ",") {
			t, err := merlin.ParseStructure(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			batchTargets = append(batchTargets, t)
		}
	}

	strat, err := merlin.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts := []merlin.Option{
		merlin.WithStrategy(strat),
		merlin.WithCPU(cpu.DefaultConfig().WithRF(*regs).WithSQ(*sq).WithL1D(*l1d)),
		merlin.WithFaults(*faults),
		merlin.WithSampling(*conf, *margin),
		merlin.WithSeed(*seed),
		merlin.WithWorkers(*workers),
	}
	if *cacheDir != "" {
		cache, err := merlin.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "merlin:", err)
			return 1
		}
		opts = append(opts, merlin.WithCache(cache))
	}
	if *verbose {
		opts = append(opts, merlin.WithProgress(func(ev merlin.CampaignEvent) {
			if ev.Type != "fault" {
				fmt.Fprintf(os.Stderr, "merlin: %s: %s\n", ev.Type, ev.Msg)
			}
		}))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if len(batchTargets) > 0 {
		return runBatch(ctx, *workload, append(opts, merlin.WithStructures(batchTargets...)))
	}

	// -structure is only consulted in single-campaign mode; batch mode
	// takes its targets from -structures and ignores it entirely.
	target, err := merlin.ParseStructure(*structure)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	s, err := merlin.Start(ctx, *workload, append(opts, merlin.WithStructure(target))...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlin:", err)
		return 2
	}

	rep, err := s.Run(ctx)
	if errors.Is(err, context.Canceled) && rep != nil {
		fmt.Fprintf(os.Stderr, "merlin: campaign cancelled with %d of %d representatives injected\n",
			rep.Injected, rep.Injected+rep.Cancelled)
		fmt.Printf("partial dist (%d classified): %v\n", rep.Dist.Total(), rep.Dist)
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlin:", err)
		return 1
	}
	fmt.Println(rep)
	goldenSrc := ""
	if rep.CacheHit {
		goldenSrc = " (served from artifact cache)"
	}
	fmt.Printf("  golden run: %d cycles%s; MeRLiN injection wall %v (serial %v)\n",
		rep.GoldenCycles, goldenSrc, rep.Wall.Round(1000000), rep.Serial.Round(1000000))
	fmt.Printf("  throughput: %.2fM cycles/s across workers; cloning took %v\n",
		rep.CyclesPerSec/1e6, rep.CloneTime.Round(1000000))

	if *baseline {
		// The session reuses the golden run and fault list, so the
		// baseline injects exactly the faults the reduced campaign was
		// sampled from.
		base, err := s.Baseline(ctx)
		if errors.Is(err, context.Canceled) && base != nil {
			fmt.Fprintf(os.Stderr, "merlin: baseline cancelled with %d of %d faults injected\n",
				base.Dist.Total(), base.Faults)
			fmt.Printf("partial baseline dist (%d classified): %v\n", base.Dist.Total(), base.Dist)
			return 130
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "merlin baseline:", err)
			return 1
		}
		fmt.Printf("baseline (%d injections): %v\n  AVF %.4f FIT %.3f; wall %v (serial %v)\n",
			base.Faults, base.Dist, base.AVF, base.FIT,
			base.Wall.Round(1000000), base.Serial.Round(1000000))
		if rep.Injected == 0 {
			fmt.Println("observed speedup: none to compute, MeRLiN injected no fault (every fault was pruned)")
		} else {
			fmt.Printf("observed speedup: %.1fx fewer injections, %.1fx less injection time\n",
				float64(base.Faults)/float64(rep.Injected),
				base.Serial.Seconds()/rep.Serial.Seconds())
		}
	}
	return 0
}

// runBatch runs the -structures batch mode: one shared golden run, one
// report per structure, cross-structure totals.
func runBatch(ctx context.Context, workload string, opts []merlin.Option) int {
	b, err := merlin.StartBatch(ctx, workload, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlin:", err)
		return 2
	}
	rep, err := b.Run(ctx)
	if errors.Is(err, context.Canceled) && rep != nil {
		fmt.Fprintf(os.Stderr, "merlin: batch cancelled with %d of %d structures reporting\n",
			len(rep.Reports), len(rep.Structures))
		for _, r := range rep.Reports {
			fmt.Printf("%s/%s partial dist (%d classified): %v\n", r.Workload, r.Structure, r.Dist.Total(), r.Dist)
		}
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlin:", err)
		return 1
	}
	fmt.Println(rep)
	goldenSrc := "simulated once"
	if rep.CacheHit {
		goldenSrc = "served from artifact cache"
	}
	fmt.Printf("  golden run: %d cycles, %s, shared by %d structures; batch wall %v\n",
		rep.GoldenCycles, goldenSrc, len(rep.Reports), rep.Wall.Round(1000000))
	for i, v := range rep.Variance {
		fmt.Printf("  %v §4.4.5 variance: baseline %.3g, MeRLiN %.3g (orders below mean: %.1f / %.1f)\n",
			rep.Reports[i].Structure, v.VarBaseline, v.VarMerlin, v.OrdersBaseline, v.OrdersMerlin)
	}
	return 0
}
