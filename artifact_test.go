package merlin

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/store"
	"merlin/internal/workloads"
)

// writtenArtifact rebuilds, from the products preprocessStructures
// returned, the artifact it files for them on a cache miss.
func writtenArtifact(arts []*Artifacts) *store.Artifact {
	traces := make([]store.StructureTrace, len(arts))
	for i, a := range arts {
		traces[i] = store.StructureTrace{
			Structure:  a.Analysis.Structure,
			Entries:    a.Analysis.Entries,
			EntryBytes: a.Analysis.EntryBytes,
			Intervals:  a.Analysis.Intervals,
		}
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Structure < traces[j].Structure })
	return &store.Artifact{
		Workload:   arts[0].Config.Workload,
		Structures: traces,
		Golden:     arts[0].Golden.Result,
	}
}

// coldPreprocess runs phase 1 of (workload, core, structures) into a
// fresh cache and returns the products, the cache and the artifact key.
func coldPreprocess(t testing.TB, workload string, core cpu.Config, structures ...Structure) ([]*Artifacts, *store.Store, store.Key) {
	t.Helper()
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := buildSessionConfig(workload, []Option{WithCPU(core), WithCache(cache), WithFaults(2000), WithSeed(1)})
	if err != nil {
		t.Fatal(err)
	}
	arts, err := preprocessStructures(sc.cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	if arts[0].CacheErr != nil {
		t.Fatal(arts[0].CacheErr)
	}
	return arts, cache, store.NewKey(workload, core, arts[0].Runner.GoldenBudget, structures...)
}

// TestArtifactRoundTripWorkloads: on every registered workload, at both
// core configurations of the timing pins, for each structure alone and for
// the batch key of all three, the artifact a cold Preprocess writes is
// read back field for field — nil and empty slices kept apart.
func TestArtifactRoundTripWorkloads(t *testing.T) {
	names := workloads.Names("")
	if raceEnabled || testing.Short() {
		names = []string{"sha", "djpeg"}
	}
	cores := []struct {
		name string
		cfg  cpu.Config
	}{
		{"default", cpu.DefaultConfig()},
		{"small", cpu.DefaultConfig().WithRF(64).WithSQ(16).WithL1D(16 << 10)},
	}
	keys := [][]Structure{{RF}, {SQ}, {L1D}, AllStructures()}
	for _, name := range names {
		for _, core := range cores {
			for _, structures := range keys {
				arts, cache, key := coldPreprocess(t, name, core.cfg, structures...)
				want := writtenArtifact(arts)
				got, ok := cache.Get(key)
				if !ok {
					t.Fatalf("%s/%s/%v: the artifact Preprocess wrote was not served", name, core.name, structures)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/%v: round trip changed the artifact", name, core.name, structures)
				}
			}
		}
	}
}

// TestArtifactCodecBudget pins what the gcc/RF golden artifact costs the
// cache: its exact size on disk, and what one Put plus one Get allocate
// (single goroutine, so the figure repeats to the byte; the budget leaves
// ~20% headroom over 2.44 MB). The all-gob body of format 3 was 4,402,959
// bytes and cost 55.1 MB to write and read back; format 4, which still
// carried the event log, 2,149,228 bytes and 18.0 MB; format 5, which
// still carried the branch trace and checkpoint schedule, 297,306 bytes
// and 2.91 MB.
func TestArtifactCodecBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		wantBytes = 248_791
		budget    = 2_950_000
	)
	arts, cache, key := coldPreprocess(t, "gcc", cpu.DefaultConfig(), RF)
	if st := cache.Stats(); st.Bytes != wantBytes {
		t.Errorf("gcc/RF artifact is %d bytes on disk, want %d", st.Bytes, wantBytes)
	}
	a := writtenArtifact(arts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := cache.Put(key, a); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); !ok {
		t.Fatal("Get after Put missed")
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("gcc/RF artifact: %d bytes; Put+Get allocated %.2f MB", cache.Stats().Bytes, float64(got)/1e6)
	if got > budget {
		t.Errorf("gcc/RF Put+Get allocated %d bytes, budget %d", got, budget)
	}
}

// TestColdCachePreprocessAllocBudget is TestPreprocessAllocBudget with a
// fresh cache attached: the golden run, its analysis and the artifact
// write. It was 72.6 MB with the all-gob body of format 3, 42.2 MB with
// format 4, 46.8 MB while the golden run froze the checkpoint ladder as it
// went, 42.6 MB once it froze nothing and 13.3 MB once the golden run
// recorded no event log and the artifact carried none, 7.9 MB once the
// interval and branch slices doubled as they grow, 6.3 MB once a new
// core's caches started on the shared zero generation, 5.4 MB once the
// golden run recorded no branch trace and the artifact carried none; it is
// 2.9 MB now that each interval is stored once and the RF index keeps one
// id run per register, so the budget fails if any of the larger costs
// comes back.
func TestColdCachePreprocessAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 3_700_000
	// The program assembled and the spare interval chunks built once per
	// process: not Preprocess's cost.
	preprocessed(t, "gcc", WithStructure(RF), WithFaults(2000), WithSeed(1))
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := startSession(t, "gcc", WithStructure(RF), WithFaults(2000), WithSeed(1), WithCache(cache))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Preprocess(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if st := cache.Stats(); st.Puts != 1 {
		t.Fatalf("cache stats %+v, want one Put", st)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("gcc/RF Preprocess into a fresh cache allocated %.1f MB", float64(got)/1e6)
	if got > budget {
		t.Errorf("gcc/RF cold-cache Preprocess allocated %d bytes, budget %d", got, budget)
	}
}

// BenchmarkArtifactCache sets what a cache hit costs against what it
// saves, on the bench harness's cached campaigns (gcc/RF and omnetpp/RF at
// 2000 faults, daemon_burst's djpeg RF+SQ+L1D batch key): recompute is a
// cold Preprocess without a cache (golden run, analysis, fault list), put
// and get one Store call on its artifact.
func BenchmarkArtifactCache(b *testing.B) {
	for _, c := range []struct {
		name, workload string
		structures     []Structure
	}{
		{"gcc-RF", "gcc", []Structure{RF}},
		{"omnetpp-RF", "omnetpp", []Structure{RF}},
		{"djpeg-RF+SQ+L1D", "djpeg", AllStructures()},
	} {
		b.Run(c.name, func(b *testing.B) {
			arts, cache, key := coldPreprocess(b, c.workload, cpu.DefaultConfig(), c.structures...)
			a := writtenArtifact(arts)
			sc, err := buildSessionConfig(c.workload, []Option{WithFaults(2000), WithSeed(1)})
			if err != nil {
				b.Fatal(err)
			}
			b.Run("recompute", func(b *testing.B) {
				for range b.N {
					if _, err := preprocessStructures(sc.cfg, c.structures); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("put", func(b *testing.B) {
				for range b.N {
					if err := cache.Put(key, a); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cache.Stats().Bytes)/1e6, "file-MB")
			})
			b.Run("get", func(b *testing.B) {
				for range b.N {
					if _, ok := cache.Get(key); !ok {
						b.Fatal("miss")
					}
				}
			})
		})
	}
}
