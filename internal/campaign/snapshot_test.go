package campaign

import (
	"sync"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/workloads"
)

func snapRunner(t *testing.T, workload string) (*Runner, uint64) {
	t.Helper()
	w, err := workloads.Get(workload)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Target{Cfg: cpu.DefaultConfig(), Prog: w.Program()})
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	return r, g.Result.Cycles
}

// TestSnapshotCacheHitMiss: first build misses, repeats hit and return the
// identical immutable set; stats track both.
func TestSnapshotCacheHitMiss(t *testing.T) {
	r, cycles := snapRunner(t, "sha")
	c := NewSnapshotCache(0)
	r.Snapshots = c

	key := SnapshotKey{Workload: "sha", CPU: r.Cfg, GoldenCycles: cycles}
	builds := 0
	build := func() *CheckpointSet {
		builds++
		return r.BuildCheckpoints(4, cycles)
	}

	set1, hit := c.GetOrBuild(key, build)
	if hit || set1 == nil || builds != 1 {
		t.Fatalf("first GetOrBuild: hit=%v builds=%d", hit, builds)
	}
	set2, hit := c.GetOrBuild(key, build)
	if !hit || set2 != set1 || builds != 1 {
		t.Fatalf("second GetOrBuild: hit=%v same=%v builds=%d", hit, set2 == set1, builds)
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats after hit+miss: %+v", st)
	}
	if st.Bytes != set1.MemBytes() {
		t.Errorf("accounted bytes %d != set estimate %d", st.Bytes, set1.MemBytes())
	}
}

// TestSnapshotCacheLRUBudget: a budget big enough for one ladder must
// evict the least recently used when a second arrives, and always retain
// the newest even when it alone exceeds the budget.
func TestSnapshotCacheLRUBudget(t *testing.T) {
	r, cycles := snapRunner(t, "sha")
	one := r.BuildCheckpoints(3, cycles)
	c := NewSnapshotCache(one.MemBytes() + one.MemBytes()/2) // fits one, not two

	// Two ladders of different sizes, keyed apart by GoldenCycles.
	keyK := func(k int) SnapshotKey {
		return SnapshotKey{Workload: "sha", CPU: r.Cfg, GoldenCycles: cycles + uint64(k)}
	}
	c.GetOrBuild(keyK(3), func() *CheckpointSet { return r.BuildCheckpoints(3, cycles) })
	c.GetOrBuild(keyK(5), func() *CheckpointSet { return r.BuildCheckpoints(5, cycles) })

	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after exceeding budget: %+v", st)
	}
	// The newest key must be the survivor: re-requesting it hits...
	if _, hit := c.GetOrBuild(keyK(5), func() *CheckpointSet { t.Fatal("unexpected rebuild"); return nil }); !hit {
		t.Error("most recent ladder was evicted")
	}
	// ...and the evicted one rebuilds.
	rebuilt := false
	if _, hit := c.GetOrBuild(keyK(3), func() *CheckpointSet {
		rebuilt = true
		return r.BuildCheckpoints(3, cycles)
	}); hit || !rebuilt {
		t.Error("evicted ladder was not rebuilt")
	}
}

// TestSnapshotCacheConcurrentBuild: concurrent GetOrBuild calls for one
// key must produce exactly one build, with latecomers reporting hits on
// the shared set.
func TestSnapshotCacheConcurrentBuild(t *testing.T) {
	r, cycles := snapRunner(t, "sha")
	c := NewSnapshotCache(0)
	key := SnapshotKey{Workload: "sha", CPU: r.Cfg, GoldenCycles: cycles}

	var mu sync.Mutex
	builds := 0
	var wg sync.WaitGroup
	sets := make([]*CheckpointSet, 8)
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			set, _ := c.GetOrBuild(key, func() *CheckpointSet {
				mu.Lock()
				builds++
				mu.Unlock()
				return r.BuildCheckpoints(6, cycles)
			})
			sets[i] = set
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("concurrent GetOrBuild built %d ladders, want 1", builds)
	}
	for i, set := range sets {
		if set != sets[0] {
			t.Fatalf("caller %d received a different set", i)
		}
	}
}
