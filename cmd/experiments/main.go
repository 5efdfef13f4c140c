// Command experiments regenerates the paper's tables and figures on the
// simulated substrate.
//
//	experiments -experiment all
//	experiments -experiment fig8 -faults 5000
//	experiments -experiment accuracy -workloads sha,qsort -faults 2000
//	experiments -experiment fig13 -structures RF,SQ
//
// Experiments: table1 table3 table4 fig6..fig17 accuracy speedups theory
// ablation all.
// "accuracy" runs the shared heavy pass behind figs 6/7/14/15/16/17+theory;
// "speedups" covers figs 8/9/10/12/13.
//
// Every experiment runs under a signal-aware context: Ctrl-C cancels the
// in-flight campaign between injections instead of killing the process
// mid-simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"merlin"

	"merlin/internal/experiments"
)

// writeCSV writes a machine-readable copy of a result into dir as
// name.csv; an empty dir writes nothing.
func writeCSV(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(content), 0o644)
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run")
		faults     = flag.Int("faults", 2000, "initial fault list per campaign (paper: 60000)")
		scale      = flag.Int("scale", 10, "fig13 list multiplier (paper: 10)")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default: the suite's ten)")
		structures = flag.String("structures", "", "comma-separated structure subset of RF,SQ,L1D (default: all three)")
		seed       = flag.Int64("seed", 1, "fault sampling seed")
		workers    = flag.Int("workers", 0, "injection parallelism (0 = all cores)")
		quiet      = flag.Bool("quiet", false, "suppress progress lines")
		csvDir     = flag.String("csv", "", "also write machine-readable CSVs into this directory")
	)
	flag.Parse()

	o := experiments.Options{
		Faults:      *faults,
		ScaleFactor: *scale,
		Seed:        *seed,
		Workers:     *workers,
	}
	if *workloads != "" {
		o.Workloads = strings.Split(*workloads, ",")
	}
	for _, name := range strings.Split(*structures, ",") {
		if name == "" {
			continue
		}
		s, err := merlin.ParseStructure(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		o.Structures = append(o.Structures, s)
	}
	if !*quiet {
		o.Log = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, *experiment, o, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run prints experiment name's result and, when csvDir is set, writes its
// CSV there.
func run(ctx context.Context, name string, o experiments.Options, csvDir string) error {
	speedupFig := func(f func(context.Context, experiments.Options) (*experiments.SpeedupResult, error)) error {
		r, err := f(ctx, o)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		return writeCSV(csvDir, strings.ToLower(strings.ReplaceAll(r.Figure, " ", "")), r.CSV())
	}
	accuracy := func(renders ...func(*experiments.AccuracyResult) string) error {
		r, err := experiments.RunAccuracy(ctx, o)
		if err != nil {
			return err
		}
		for _, render := range renders {
			fmt.Println(render(r))
		}
		return writeCSV(csvDir, "accuracy", r.CSV())
	}

	switch name {
	case "table1":
		fmt.Println(experiments.Table1())
	case "table3":
		fmt.Println(experiments.Table3())
	case "table4":
		r, err := experiments.Table4(ctx, o)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	case "fig6":
		return accuracy((*experiments.AccuracyResult).RenderFig6)
	case "fig7":
		return accuracy((*experiments.AccuracyResult).RenderFig7)
	case "fig8":
		return speedupFig(experiments.Fig8)
	case "fig9":
		return speedupFig(experiments.Fig9)
	case "fig10":
		return speedupFig(experiments.Fig10)
	case "fig11":
		r, err := experiments.Fig11(ctx, o)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	case "fig12":
		return speedupFig(experiments.Fig12)
	case "fig13":
		r, err := experiments.Fig13(ctx, o)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
		return writeCSV(csvDir, "fig13", r.CSV())
	case "fig14":
		return accuracy((*experiments.AccuracyResult).RenderFig14)
	case "fig15":
		return accuracy((*experiments.AccuracyResult).RenderFig15)
	case "fig16":
		return accuracy((*experiments.AccuracyResult).RenderFig16)
	case "fig17":
		return accuracy((*experiments.AccuracyResult).RenderFig17)
	case "theory":
		return accuracy((*experiments.AccuracyResult).RenderTheory)
	case "ablation":
		r, err := experiments.Ablation(ctx, o)
		if err != nil {
			return err
		}
		fmt.Println(r.Render())
	case "speedups":
		for _, sub := range []string{"fig8", "fig9", "fig10", "fig12", "fig13"} {
			if err := run(ctx, sub, o, csvDir); err != nil {
				return err
			}
		}
	case "accuracy":
		return accuracy(
			(*experiments.AccuracyResult).RenderFig6,
			(*experiments.AccuracyResult).RenderFig7,
			(*experiments.AccuracyResult).RenderFig14,
			(*experiments.AccuracyResult).RenderFig15,
			(*experiments.AccuracyResult).RenderFig16,
			(*experiments.AccuracyResult).RenderFig17,
			(*experiments.AccuracyResult).RenderTheory,
		)
	case "all":
		fmt.Println(experiments.Table1())
		fmt.Println(experiments.Table3())
		for _, sub := range []string{"speedups", "fig11", "accuracy", "table4", "ablation"} {
			if err := run(ctx, sub, o, csvDir); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
