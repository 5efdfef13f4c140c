package merlin

import (
	"context"
	"reflect"
	"testing"

	"merlin/internal/campaign"
	"merlin/internal/cpu"
)

// TestCacheBitIdenticalReports: a campaign run cold (no cache), cache-miss
// (populating), and cache-hit (served) must produce identical reports; the
// hit must skip the golden run.
func TestCacheBitIdenticalReports(t *testing.T) {
	run := func(extra ...Option) *Report {
		t.Helper()
		opts := append([]Option{WithStructure(RF), WithFaults(300), WithSeed(11), WithStrategy(StrategyForked)}, extra...)
		rep, err := startSession(t, "sha", opts...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	cold := run()

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	miss := run(WithCache(cache))
	if miss.CacheHit {
		t.Fatal("first cached run reported a cache hit on an empty cache")
	}
	hit := run(WithCache(cache))
	if !hit.CacheHit {
		t.Fatal("second cached run missed; golden run was repeated")
	}

	for _, r := range []*Report{miss, hit} {
		if r.Dist != cold.Dist {
			t.Fatalf("Dist diverged: cold %v vs %v (hit=%v)", cold.Dist, r.Dist, r.CacheHit)
		}
		if r.GoldenCycles != cold.GoldenCycles || r.InitialFaults != cold.InitialFaults ||
			r.ACEMasked != cold.ACEMasked || r.Injected != cold.Injected ||
			r.FinalGroups != cold.FinalGroups || r.AVF != cold.AVF || r.FIT != cold.FIT {
			t.Fatalf("report diverged from cold run:\ncold %+v\ngot  %+v", cold, r)
		}
	}

	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 hit / 1 miss / 1 put", st)
	}
}

// TestCacheKeySeparation: changing the core configuration must not reuse
// another configuration's golden run.
func TestCacheKeySeparation(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithStructure(RF), WithFaults(50), WithSeed(3), WithCache(cache)}
	if _, err := startSession(t, "sha", opts...).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err := startSession(t, "sha", append(opts, WithCPU(cpu.DefaultConfig().WithRF(128)))...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("campaign with a different core config was served another config's artifact")
	}
}

// TestConfigValidation: negative knobs reach the user as errors, not as
// silently applied defaults.
func TestConfigValidation(t *testing.T) {
	for name, opt := range map[string]Option{
		"negative workers": WithWorkers(-2),
		"negative faults":  WithFaults(-1),
		"negative reps":    WithRepsPerGroup(-3),
		"bad confidence":   WithSampling(1.5, 0),
	} {
		if _, err := Start(context.Background(), "sha", opt); err == nil {
			t.Errorf("%s: Start accepted the invalid option", name)
		}
	}
}

// TestColdAndWarmCampaignsDoSameWork: a cold session, whose golden run
// froze the checkpoint ladder, and an artifact-cache-hit session of the
// same spec, which has no golden run and replays the ladder once, report
// the same campaign and the same work — Run, then Baseline off the same
// ladder — except timings and SimCycles, which on the warm side carry
// exactly the one ladder replay.
func TestColdAndWarmCampaignsDoSameWork(t *testing.T) {
	ctx := context.Background()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithStructure(RF), WithFaults(300), WithSeed(11), WithCache(cache)}
	cold, warm := startSession(t, "sha", opts...), startSession(t, "sha", opts...)
	coldRep, err := cold.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warmRep, err := warm.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if coldRep.CacheHit || !warmRep.CacheHit {
		t.Fatalf("cache hits cold %v warm %v, want a miss then a hit", coldRep.CacheHit, warmRep.CacheHit)
	}
	coldBase, err := cold.Baseline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warmBase, err := warm.Baseline(ctx)
	if err != nil {
		t.Fatal(err)
	}

	replay := warm.Artifacts().Runner.BuildCheckpoints(campaign.ForkSyncPoints, warmRep.GoldenCycles).LastCycle()
	if d := warmRep.SimCycles - coldRep.SimCycles; d != replay {
		t.Errorf("warm Run simulated %d cycles more than cold, want the ladder replay's %d", d, replay)
	}
	if warmBase.SimCycles != coldBase.SimCycles {
		t.Errorf("Baseline simulated %d cycles warm, %d cold: the warm session replayed its ladder twice", warmBase.SimCycles, coldBase.SimCycles)
	}
	sameWork := func(w *Work) {
		w.Serial, w.CloneTime, w.SimCycles = 0, 0, 0
	}
	for _, r := range []*Report{coldRep, warmRep} {
		sameWork(&r.Work)
		r.Wall, r.CyclesPerSec, r.CacheHit = 0, 0, false
	}
	if !reflect.DeepEqual(coldRep, warmRep) {
		t.Errorf("cold and warm reports differ:\ncold %+v\nwarm %+v", coldRep, warmRep)
	}
	for _, r := range []*BaselineReport{coldBase, warmBase} {
		sameWork(&r.Work)
		r.Wall, r.CyclesPerSec = 0, 0
	}
	if !reflect.DeepEqual(coldBase, warmBase) {
		t.Errorf("cold and warm baselines differ:\ncold %+v\nwarm %+v", coldBase, warmBase)
	}
}
