// Quickstart: run one MeRLiN campaign end to end with the Session API.
//
// The pipeline is the paper's Fig 2: a single fault-free profiling run
// records the vulnerable intervals of the physical register file, a
// statistical fault list is drawn, MeRLiN prunes and groups it, and only
// the group representatives are injected.
//
//	go run ./examples/quickstart
//
// merlin.Start validates the campaign up front; Session.Run executes it
// under a context, so long campaigns can be cancelled or deadlined. For
// many campaigns, run the service instead: cmd/merlind keeps a golden-run
// artifact cache so campaigns sharing a (workload, core config) pair skip
// the profiling run entirely — or pass merlin.WithCache (see
// merlin.OpenCache) to get the same amortization here.
package main

import (
	"context"
	"fmt"
	"log"

	"merlin"
)

func main() {
	ctx := context.Background()
	session, err := merlin.Start(ctx, "qsort", // MiBench-style quicksort kernel
		merlin.WithStructure(merlin.RF), // inject the physical integer register file
		merlin.WithFaults(2000),         // initial statistical fault list (paper: 60000)
		merlin.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}

	report, err := session.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(report)
	fmt.Printf("\nMeRLiN injected %d of %d faults (%.0fx faster than the comprehensive campaign)\n",
		report.Injected, report.InitialFaults, report.FinalSpeedup)
	fmt.Printf("SDC probability per transient fault: %.2f%%\n", 100*report.Dist.Share(merlin.SDC))
}
