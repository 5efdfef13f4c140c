package merlin

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// batchOpts is the shared configuration of the differential tests: small
// enough to run per structure, deterministic in seed.
func batchOpts(extra ...Option) []Option {
	return append([]Option{
		WithFaults(200),
		WithSeed(11),
		WithStrategy(StrategyForked),
	}, extra...)
}

// reportSemantics strips a Report down to the fields that must be
// bit-identical between a batch member and a standalone session: the
// classification and everything derived from it. Timings (Wall,
// CloneTime, ...) legitimately differ.
func reportSemantics(r *Report) Report {
	return Report{
		Workload:      r.Workload,
		Structure:     r.Structure,
		GoldenCycles:  r.GoldenCycles,
		InitialFaults: r.InitialFaults,
		ACEMasked:     r.ACEMasked,
		PostACE:       r.PostACE,
		Injected:      r.Injected,
		Cancelled:     r.Cancelled,
		StepOneGroups: r.StepOneGroups,
		FinalGroups:   r.FinalGroups,
		ACESpeedup:    r.ACESpeedup,
		FinalSpeedup:  r.FinalSpeedup,
		Dist:          r.Dist,
		AVF:           r.AVF,
		FIT:           r.FIT,
		ACELikeAVF:    r.ACELikeAVF,
		ACELikeFIT:    r.ACELikeFIT,
		RepOutcomes:   append([]Outcome(nil), r.RepOutcomes...),
	}
}

// TestBatchMatchesStandaloneSessions is the batch acceptance criterion: a
// 3-structure batch performs exactly one golden run, and each structure's
// report is bit-identical to a standalone single-structure session with
// the same configuration and seed.
func TestBatchMatchesStandaloneSessions(t *testing.T) {
	ctx := context.Background()
	b, err := StartBatch(ctx, "sha", batchOpts(WithStructures(RF, SQ, L1D))...)
	if err != nil {
		t.Fatal(err)
	}
	batchRep, err := b.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if batchRep.GoldenRuns != 1 {
		t.Fatalf("batch performed %d golden runs, want exactly 1", batchRep.GoldenRuns)
	}
	if len(batchRep.Reports) != 3 || len(batchRep.Variance) != 3 {
		t.Fatalf("batch produced %d reports / %d variance entries, want 3 / 3",
			len(batchRep.Reports), len(batchRep.Variance))
	}

	var wantFIT, wantACELikeFIT float64
	for i, s := range []Structure{RF, SQ, L1D} {
		got := batchRep.Reports[i]
		if got.Structure != s {
			t.Fatalf("report %d is for %v, want %v (request order)", i, got.Structure, s)
		}
		solo, err := Start(ctx, "sha", batchOpts(WithStructure(s))...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solo.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reportSemantics(got), reportSemantics(want)) {
			t.Fatalf("%v: batch report diverged from standalone session:\nbatch      %+v\nstandalone %+v",
				s, reportSemantics(got), reportSemantics(want))
		}
		wantFIT += want.FIT
		wantACELikeFIT += want.ACELikeFIT
	}

	// Cross-structure totals: FIT rates add; AVF is bit-weighted and must
	// sit inside the per-structure range.
	if diff := batchRep.FIT - wantFIT; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("batch FIT = %v, want sum of per-structure FITs %v", batchRep.FIT, wantFIT)
	}
	if diff := batchRep.ACELikeFIT - wantACELikeFIT; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("batch ACELikeFIT = %v, want %v", batchRep.ACELikeFIT, wantACELikeFIT)
	}
	lo, hi := batchRep.Reports[0].AVF, batchRep.Reports[0].AVF
	for _, r := range batchRep.Reports {
		if r.AVF < lo {
			lo = r.AVF
		}
		if r.AVF > hi {
			hi = r.AVF
		}
	}
	if batchRep.AVF < lo || batchRep.AVF > hi {
		t.Fatalf("bit-weighted batch AVF %v outside per-structure range [%v, %v]", batchRep.AVF, lo, hi)
	}
	if batchRep.TotalBits <= 0 {
		t.Fatalf("batch TotalBits = %d, want > 0", batchRep.TotalBits)
	}

	// §4.4.5 sanity on the variance bounds: MeRLiN's variance dominates
	// the baseline's, and the mean matches the campaign's non-masked
	// expectation scale (both are probabilities in [0, 1]).
	for i, v := range batchRep.Variance {
		if v.VarMerlin < v.VarBaseline {
			t.Fatalf("structure %d: VarMerlin %v < VarBaseline %v", i, v.VarMerlin, v.VarBaseline)
		}
		if v.Mean < 0 || v.Mean > 1 {
			t.Fatalf("structure %d: mean %v outside [0, 1]", i, v.Mean)
		}
	}
}

// TestBatchSharedArtifactCache: one batch stores one artifact; a repeat
// batch is served from it with zero golden runs and a bit-identical
// report.
func TestBatchSharedArtifactCache(t *testing.T) {
	ctx := context.Background()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *BatchReport {
		t.Helper()
		b, err := StartBatch(ctx, "sha", batchOpts(WithStructures(RF, SQ, L1D), WithCache(cache))...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	cold := run()
	if cold.CacheHit || cold.GoldenRuns != 1 {
		t.Fatalf("cold batch: CacheHit=%v GoldenRuns=%d, want false / 1", cold.CacheHit, cold.GoldenRuns)
	}
	if st := cache.Stats(); st.Puts != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold batch cache stats = %+v, want exactly 1 miss / 1 put", st)
	}

	warm := run()
	if !warm.CacheHit || warm.GoldenRuns != 0 {
		t.Fatalf("warm batch: CacheHit=%v GoldenRuns=%d, want true / 0", warm.CacheHit, warm.GoldenRuns)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("warm batch cache stats = %+v, want exactly 1 hit", st)
	}
	for i := range cold.Reports {
		if !reflect.DeepEqual(reportSemantics(cold.Reports[i]), reportSemantics(warm.Reports[i])) {
			t.Fatalf("structure %d: cache-served batch diverged from cold batch", i)
		}
	}
}

// TestBatchProgressTagging: fault and per-structure phase events carry
// the structure name; the shared preprocess and the batch summary carry
// none (they span all structures).
func TestBatchProgressTagging(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	ctx := context.Background()
	b, err := StartBatch(ctx, "sha", batchOpts(
		WithStructures(RF, SQ),
		WithProgress(func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, p)
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	tagged := map[string]int{}
	var batchDone, sharedPre bool
	for _, p := range events {
		switch {
		case p.Kind == ProgressFault:
			if p.Structure != "RF" && p.Structure != "SQ" {
				t.Fatalf("fault event tagged %q, want RF or SQ", p.Structure)
			}
			tagged[p.Structure]++
		case p.Phase == PhasePreprocess && p.Kind == ProgressPhaseDone:
			sharedPre = true
			if p.Structure != "" {
				t.Fatalf("shared preprocess event tagged %q, want untagged", p.Structure)
			}
			if !strings.Contains(p.Msg, "2 structures") {
				t.Fatalf("preprocess summary %q does not mention the structure count", p.Msg)
			}
		case p.Phase == PhaseBatch:
			batchDone = true
			if p.Structure != "" {
				t.Fatalf("batch summary tagged %q, want untagged", p.Structure)
			}
		}
	}
	if tagged["RF"] == 0 || tagged["SQ"] == 0 {
		t.Fatalf("fault events per structure = %v, want both structures represented", tagged)
	}
	if !sharedPre || !batchDone {
		t.Fatalf("missing batch-level events: preprocess=%v batch=%v", sharedPre, batchDone)
	}
}

// TestBatchCancellation: cancelling mid-injection stops the whole batch —
// the structure under injection returns a partial report, later
// structures never run, and Run surfaces ctx.Err().
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	b, err := StartBatch(ctx, "sha",
		WithStructures(RF, SQ, L1D),
		WithFaults(4000), WithSeed(7), WithWorkers(1),
		WithProgress(func(p Progress) {
			if p.Kind == ProgressFault && seen.Add(1) == 3 {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled batch returned no partial report")
	}
	if len(rep.Reports) == 0 || len(rep.Reports) == 3 && rep.Reports[2].Cancelled == 0 {
		t.Fatalf("cancelled batch reports = %d complete, want a partial tail", len(rep.Reports))
	}
	last := rep.Reports[len(rep.Reports)-1]
	if last.Cancelled == 0 {
		t.Fatalf("last report of a cancelled batch has no Cancelled count")
	}
}

// TestStartBatchValidation: option errors surface at StartBatch, Start
// rejects the batch-only option, and the default target list is all
// structures.
func TestStartBatchValidation(t *testing.T) {
	ctx := context.Background()

	if _, err := Start(ctx, "sha", WithStructures(RF, SQ)); err == nil {
		t.Fatal("Start accepted WithStructures")
	}
	if _, err := StartBatch(ctx, "sha", WithStructures()); err == nil {
		t.Fatal("StartBatch accepted an empty WithStructures")
	}
	if _, err := StartBatch(ctx, "sha", WithStructures(Structure(9))); err == nil {
		t.Fatal("StartBatch accepted an unknown structure")
	}
	if _, err := StartBatch(ctx, "no-such-workload"); err == nil {
		t.Fatal("StartBatch accepted an unknown workload")
	}
	if _, err := StartBatch(ctx, "sha", WithFaults(-1)); err == nil {
		t.Fatal("StartBatch accepted a negative fault count")
	}

	b, err := StartBatch(ctx, "sha")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Structures(), AllStructures(); !reflect.DeepEqual(got, want) {
		t.Fatalf("default batch structures = %v, want %v", got, want)
	}
	dedup, err := StartBatch(ctx, "sha", WithStructures(SQ, RF, SQ, RF))
	if err != nil {
		t.Fatal(err)
	}
	if got := dedup.Structures(); !reflect.DeepEqual(got, []Structure{SQ, RF}) {
		t.Fatalf("deduped batch structures = %v, want [SQ RF] (request order)", got)
	}
}
