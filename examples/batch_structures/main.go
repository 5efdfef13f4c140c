// Batch campaigns: evaluate one workload across all of its target
// structures — RF, SQ and L1D, the per-structure columns of the paper's
// §4.4 tables — over a single shared golden run.
//
// A standalone Session per structure would re-trace the same fault-free
// run three times. StartBatch traces every structure in one pass, shares
// the artifact-cache entry, clone pool and checkpoint-snapshot ladder
// across the per-structure injections, and still produces per-structure
// reports bit-identical to standalone sessions with the same seed.
//
//	go run ./examples/batch_structures
package main

import (
	"context"
	"fmt"
	"log"

	"merlin"
)

func main() {
	ctx := context.Background()
	batch, err := merlin.StartBatch(ctx, "qsort",
		// The batch targets; omitting WithStructures evaluates all
		// structures. Every other option is shared: each structure's
		// fault list is sampled with the same seed a standalone session
		// would use.
		merlin.WithStructures(merlin.RF, merlin.SQ, merlin.L1D),
		merlin.WithFaults(2000), // per structure (paper: 60000)
		merlin.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}

	report, err := batch.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(report)
	fmt.Printf("\none golden run (%d cycles) shared by %d structures (golden runs performed: %d)\n",
		report.GoldenCycles, len(report.Reports), report.GoldenRuns)
	for _, r := range report.Reports {
		fmt.Printf("  %-3v AVF %.4f  FIT %7.3f  (%d representatives injected for %d faults, %.0fx)\n",
			r.Structure, r.AVF, r.FIT, r.Injected, r.InitialFaults, r.FinalSpeedup)
	}
	fmt.Printf("cross-structure: AVF %.4f (bit-weighted over %d bits)  FIT %.3f\n",
		report.AVF, report.TotalBits, report.FIT)
}
