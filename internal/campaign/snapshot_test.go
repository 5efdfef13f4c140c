package campaign

import (
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

// TestSnapshotCacheHitMiss: a Get before any Put misses; after a Put,
// Gets hit and return the identical immutable set, and a second Put under
// the same key keeps the first set; stats track both.
func TestSnapshotCacheHitMiss(t *testing.T) {
	r, cycles := snapRunner(t, "sha")
	c := NewSnapshotCache(0)
	key := SnapshotKey{Workload: "sha", CPU: r.Cfg, GoldenCycles: cycles}

	if set := c.Get(key); set != nil {
		t.Fatal("an empty cache served a ladder")
	}
	set1 := r.BuildCheckpoints(4, cycles)
	c.Put(key, set1)
	c.Put(key, r.BuildCheckpoints(4, cycles))
	for i := 0; i < 2; i++ {
		if set := c.Get(key); set != set1 {
			t.Fatalf("Get %d after Put: got %p, want the first Put's set %p", i, set, set1)
		}
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats after 1 miss and 2 hits: %+v", st)
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
	c.Put(keyK(3), one)
	c.Put(keyK(5), r.BuildCheckpoints(5, cycles))

	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after exceeding budget: %+v", st)
	}
	// The newest key must be the survivor...
	if c.Get(keyK(5)) == nil {
		t.Error("most recent ladder was evicted")
	}
	// ...and the evicted one misses.
	if c.Get(keyK(3)) != nil {
		t.Error("evicted ladder was served")
	}
}
