package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"merlin/internal/chaos/suite"
)

// runChaos implements `merlin chaos`: certify the campaign fleet against
// seeded fault schedules. An in-process coordinator+worker fleet runs
// one chaos campaign per scenario, cycling seven schedule kinds — stalled
// and crashed shard streams, torn registry writes, 5xx storms, duplicates,
// stragglers and a mix — and every surviving run must produce a merged
// report bit-identical to a clean run of the same request.
//
//	merlin chaos -seed 1 -scenarios 25
//	merlin chaos -seed 7 -scenarios 8 -workers 3 -v
func runChaos(args []string) int {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		seed      = fs.Uint64("seed", 1, "chaos seed; scenario i draws from an independent stream derived from (seed, i)")
		scenarios = fs.Int("scenarios", 25, "number of seeded chaos schedules to run")
		workers   = fs.Int("workers", 2, "fleet workers per scenario")
		verbose   = fs.Bool("v", false, "print one line per scenario")
	)
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opt := suite.Options{Seed: *seed, Scenarios: *scenarios, Workers: *workers}
	if *verbose {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	res, err := suite.Run(ctx, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "merlin chaos: FAIL:", err)
		return 1
	}
	fmt.Printf("chaos: %d scenarios (%d workers each) survived with bit-identical reports; %d injected faults, %d requeues\n",
		res.Scenarios, res.Workers, res.Faults, res.Requeues)
	overhead := 0.0
	if res.CleanWall > 0 {
		overhead = float64(res.ChaosMean) / float64(res.CleanWall)
	}
	fmt.Printf("chaos-summary: scenarios=%d requeues=%d faults=%d clean_ms=%d chaos_mean_ms=%d overhead_x=%.2f suite_ms=%d result=PASS\n",
		res.Scenarios, res.Requeues, res.Faults,
		res.CleanWall.Milliseconds(), res.ChaosMean.Milliseconds(), overhead,
		res.SuiteWall.Milliseconds())
	return 0
}
