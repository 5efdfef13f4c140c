// Relyzer-heuristic comparison (paper §4.4.4): both MeRLiN and Relyzer's
// control-equivalence prune the same post-ACE fault list, but Relyzer
// groups by forward control-flow path with one random pilot per group,
// while MeRLiN groups by (reader RIP, uPC, byte) with instance-diverse
// representatives. This example measures both reductions against the
// comprehensive campaign's outcomes for the post-ACE list.
//
//	go run ./examples/relyzer_compare
package main

import (
	"context"
	"fmt"
	"log"

	"merlin"

	"merlin/internal/campaign"
	"merlin/internal/experiments/relyzer"
)

func main() {
	const seed = 3
	ctx := context.Background()
	s, err := merlin.Start(ctx, "stringsearch",
		merlin.WithStructure(merlin.RF),
		merlin.WithFaults(4000),
		merlin.WithSeed(seed),
	)
	if err != nil {
		log.Fatal(err)
	}
	base, err := s.Baseline(ctx)
	if err != nil {
		log.Fatal(err)
	}
	red, err := s.Reduce()
	if err != nil {
		log.Fatal(err)
	}
	a := s.Artifacts()

	// Ground truth: the comprehensive outcomes of every fault that
	// survives ACE-like pruning.
	var truth merlin.Dist
	for _, fi := range red.HitFaults {
		truth.Add(base.Outcomes[fi])
	}

	show := func(name string, r *merlin.Reduction) {
		var reps []merlin.Outcome
		for _, g := range r.Groups {
			for _, rep := range g.Reps {
				reps = append(reps, base.Outcomes[rep])
			}
		}
		dist := r.PostACEExtrapolate(reps)
		worst := 0.0
		for o := merlin.Outcome(0); o < campaign.NumOutcomes; o++ {
			d := 100 * (dist.Share(o) - truth.Share(o))
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		fmt.Printf("%-22s injected %4d of %4d (%.1fx)  worst-class error %.2f pp\n",
			name, r.ReducedCount(), len(red.HitFaults),
			float64(len(a.Faults))/float64(r.ReducedCount()), worst)
		fmt.Printf("%-22s %v\n", "", dist)
	}

	fmt.Printf("ground truth (%d injections): %v\n\n", len(red.HitFaults), truth)
	show("MeRLiN", red)
	rel := relyzer.Reduce(a.Analysis, a.Faults, a.Golden.Tracer.BranchTrace(), relyzer.DefaultDepth, seed)
	show("Relyzer heuristic", rel)

	large, single := relyzer.SinglePilotLargeGroups(rel, 20)
	mlarge, msingle := relyzer.SinglePilotLargeGroups(red, 20)
	fmt.Printf("\nlarge groups (>20 faults) represented by a single pilot: Relyzer %d/%d, MeRLiN %d/%d\n",
		single, large, msingle, mlarge)
	fmt.Println("(the paper attributes Relyzer's residual inaccuracy to exactly these groups)")
}
