package merlin

import (
	"context"
	"math"
	"testing"

	"merlin/internal/campaign"
)

// startSession starts a campaign session, failing the test on an option
// error.
func startSession(t *testing.T, wl string, opts ...Option) *Session {
	t.Helper()
	s, err := Start(context.Background(), wl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// preprocessed starts a session and runs its phase 1.
func preprocessed(t *testing.T, wl string, opts ...Option) *Session {
	t.Helper()
	s := startSession(t, wl, opts...)
	if err := s.Preprocess(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPipelinePhases(t *testing.T) {
	ctx := context.Background()
	s := preprocessed(t, "sha", WithStructure(RF), WithFaults(400), WithSeed(1))
	a := s.Artifacts()
	if len(a.Faults) != 400 {
		t.Fatalf("faults = %d", len(a.Faults))
	}
	if a.Analysis == nil || len(a.Analysis.Intervals) == 0 {
		t.Fatal("no vulnerable intervals recorded")
	}
	red, err := s.Reduce()
	if err != nil {
		t.Fatal(err)
	}
	if red.ACEMasked+len(red.HitFaults) != 400 {
		t.Fatal("pruning does not partition the list")
	}
	if red.ReducedCount() > len(red.HitFaults) {
		t.Fatal("grouping increased the fault count")
	}
	// Phases are idempotent: re-running returns the same products.
	if again, _ := s.Reduce(); again != red {
		t.Error("Reduce is not memoized")
	}
	if err := s.Preprocess(ctx); err != nil || s.Artifacts() != a {
		t.Errorf("second Preprocess re-ran phase 1 (err %v)", err)
	}
	rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dist.Total() != 400 {
		t.Fatalf("extrapolated total = %d", rep.Dist.Total())
	}
	if rep.FinalSpeedup < rep.ACESpeedup {
		t.Errorf("final speedup %.1f < ACE speedup %.1f", rep.FinalSpeedup, rep.ACESpeedup)
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
}

func TestRunEndToEnd(t *testing.T) {
	rep, err := startSession(t, "fft", WithStructure(SQ), WithFaults(300), WithSeed(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitialFaults != 300 || rep.Injected == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.AVF < 0 || rep.AVF > 1 {
		t.Errorf("AVF = %v", rep.AVF)
	}
	// The ACE-like AVF upper-bounds the injection AVF up to sampling
	// noise (the paper's central conservative-bound observation).
	if rep.AVF > rep.ACELikeAVF+0.1 {
		t.Errorf("injection AVF %.4f exceeds ACE-like bound %.4f by too much", rep.AVF, rep.ACELikeAVF)
	}
}

func TestDerivedSampleSize(t *testing.T) {
	// With no explicit fault count, the Leveugle formula sizes the list.
	a := preprocessed(t, "fft", WithStructure(SQ), WithSampling(0.95, 0.05), WithSeed(3)).Artifacts()
	// 95%/5% needs ~384 faults for large populations.
	if n := len(a.Faults); n < 350 || n > 420 {
		t.Errorf("derived sample size = %d, want ~384", n)
	}
}

// TestACELikePruningSound samples pruned faults and verifies by actual
// injection that every one of them is Masked: the guarantee MeRLiN's first
// phase rests on.
func TestACELikePruningSound(t *testing.T) {
	for _, wl := range []string{"sha", "qsort"} {
		for _, s := range []Structure{RF, SQ, L1D} {
			sess := preprocessed(t, wl, WithStructure(s), WithFaults(300), WithSeed(9))
			a := sess.Artifacts()
			red, err := sess.Reduce()
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for i, f := range a.Faults {
				if red.IntervalOf[i] >= 0 {
					continue // not pruned
				}
				if checked++; checked > 25 {
					break // bound the cost per combination
				}
				if got := a.Runner.RunFault(f, &a.Golden.Result); got != Masked {
					t.Errorf("%s/%v: pruned fault %v injected as %v", wl, s, f, got)
				}
			}
			if checked == 0 {
				t.Errorf("%s/%v: no pruned faults to verify", wl, s)
			}
		}
	}
}

// TestExtrapolationMatchesFullInjection is the accuracy claim in miniature
// (paper Fig 14): injecting only representatives and extrapolating must
// closely match injecting the entire post-ACE list.
func TestExtrapolationMatchesFullInjection(t *testing.T) {
	sess := preprocessed(t, "stringsearch", WithStructure(RF), WithFaults(500), WithSeed(4))
	a := sess.Artifacts()
	red, err := sess.Reduce()
	if err != nil {
		t.Fatal(err)
	}

	// Full injection of the post-ACE list.
	full := make([]Fault, len(red.HitFaults))
	for i, fi := range red.HitFaults {
		full[i] = a.Faults[fi]
	}
	fullRes, err := a.Runner.Run(context.Background(), full, &a.Golden.Result, campaign.Plan{})
	if err != nil {
		t.Fatal(err)
	}

	// MeRLiN path.
	repRes, err := a.Runner.Run(context.Background(), red.Reduced(), &a.Golden.Result, campaign.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	extra := red.PostACEExtrapolate(repRes.Outcomes)

	for o := Outcome(0); o < campaign.NumOutcomes; o++ {
		diff := math.Abs(extra.Share(o) - fullRes.Dist.Share(o))
		if diff > 0.10 {
			t.Errorf("class %v: extrapolated %.3f vs full %.3f (diff %.3f)",
				o, extra.Share(o), fullRes.Dist.Share(o), diff)
		}
	}
	t.Logf("full: %v", fullRes.Dist)
	t.Logf("merlin (%d of %d injected): %v", red.ReducedCount(), len(full), extra)

	// Homogeneity per the paper's eq. (1): must be high.
	outcomes := make([]Outcome, len(a.Faults))
	for i, fi := range red.HitFaults {
		outcomes[fi] = fullRes.Outcomes[i]
	}
	h := red.Homogeneity(outcomes)
	if h.Fine < 0.75 {
		t.Errorf("fine homogeneity %.3f implausibly low", h.Fine)
	}
	t.Logf("homogeneity: fine %.3f coarse %.3f perfect %.2f (%d groups, avg size %.1f)",
		h.Fine, h.Coarse, h.PerfectShare, h.Groups, h.AvgGroupSize)
}

func TestWorkloadsList(t *testing.T) {
	if len(Workloads("")) != 20 {
		t.Errorf("workloads = %d, want 20", len(Workloads("")))
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Start(context.Background(), "nope", WithStructure(RF), WithFaults(10)); err == nil {
		t.Error("expected error for unknown workload")
	}
}
