package campaign

import (
	"container/list"
	"sync"

	"merlin/internal/cpu"
)

// SnapshotKey identifies one checkpoint ladder: everything its machine
// snapshots depend on. Two campaigns agreeing on the key — regardless of
// structure, fault list, seed or workers — can share one immutable
// CheckpointSet, because the ladder, frozen by a walk or replayed, is
// deterministic in (workload program, core configuration, golden length):
// it holds the reset state and at most ForkSyncPoints rungs past it, at
// CheckpointSchedule's cycles.
type SnapshotKey struct {
	// Workload names the target program (Target.Prog.Name).
	Workload string
	// CPU is the full core configuration.
	CPU cpu.Config
	// GoldenCycles is the fault-free run length the schedule spans.
	GoldenCycles uint64
}

// ladderKey is the SnapshotKey of the Runner's Forked ladder over a
// goldenCycles-long run.
func (r *Runner) ladderKey(goldenCycles uint64) SnapshotKey {
	return SnapshotKey{Workload: r.Prog.Name, CPU: r.Cfg, GoldenCycles: goldenCycles}
}

// MemBytes is the set's resident-memory bound: the sum of its snapshots'
// footprints, each counted as if unshared. Snapshots in one set share one
// copy-on-write lineage, so this over-counts — byte-budgeted caches evict
// early rather than late.
func (s *CheckpointSet) MemBytes() int64 {
	var n int64
	for _, c := range s.cores {
		n += c.Footprint()
	}
	return n
}

// DefaultSnapshotBudget bounds the resident bytes of cached checkpoint
// ladders: roughly a handful of full-size ladders on the paper's baseline
// configuration, small next to the daemon's working set.
const DefaultSnapshotBudget = 512 << 20

// SnapshotCache is a byte-budgeted LRU of checkpoint ladders: ladders
// stay in memory, keyed by everything they depend on, so concurrent and
// repeat campaigns over the same (workload, CPU config, golden length)
// share one immutable CheckpointSet. Every Forked campaign on a Runner
// with a non-nil Snapshots field looks its ladder up here; on a miss its
// walkers freeze the ladder as they pass the rungs and store it once the
// campaign finishes uncancelled. It is safe for concurrent use: misses
// racing on one key each freeze a ladder, they are state-equal, and the
// first Put stays (every CheckpointSet is immutable and safe to clone
// from any number of goroutines).
//
// Sizes are estimated by CheckpointSet.MemBytes, a conservative
// (over-counting) bound, so heavy multi-tenant traffic cannot hold
// unbounded snapshots: the least-recently-used ladders are dropped once
// the budget is exceeded. The most recently stored ladder is always
// retained even if it alone exceeds the budget — repeat campaigns must be
// able to hit. Evicted sets still in use by running campaigns stay valid;
// eviction only drops the cache's reference.
type SnapshotCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[SnapshotKey]*snapEntry
	order   *list.List // front = most recently used

	hits, misses, evictions uint64
}

type snapEntry struct {
	key   SnapshotKey
	set   *CheckpointSet
	bytes int64
	elem  *list.Element
}

// NewSnapshotCache returns a cache bounded to budget resident bytes;
// budget <= 0 means DefaultSnapshotBudget.
func NewSnapshotCache(budget int64) *SnapshotCache {
	if budget <= 0 {
		budget = DefaultSnapshotBudget
	}
	return &SnapshotCache{
		budget:  budget,
		entries: make(map[SnapshotKey]*snapEntry),
		order:   list.New(),
	}
}

// Get returns the cached ladder for key, counting a hit, or nil, counting
// a miss.
func (c *SnapshotCache) Get(key SnapshotKey) *CheckpointSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.order.MoveToFront(e.elem)
	c.hits++
	return e.set
}

// Put stores set under key and evicts down to the budget. A key the cache
// already holds keeps its ladder: the first Put wins.
func (c *SnapshotCache) Put(key SnapshotKey, set *CheckpointSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &snapEntry{key: key, set: set, bytes: set.MemBytes()}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.bytes += e.bytes
	c.evictLocked()
}

// evictLocked drops least-recently-used ladders until the cache fits its
// budget, always retaining the most recently used entry. Caller holds mu.
func (c *SnapshotCache) evictLocked() {
	for c.bytes > c.budget && c.order.Len() > 1 {
		back := c.order.Back()
		e := back.Value.(*snapEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// SnapshotStats is a point-in-time snapshot of cache effectiveness,
// served by the daemon's /statsz endpoint.
type SnapshotStats struct {
	Hits      uint64 `json:"hits"`      // campaigns served a ladder
	Misses    uint64 `json:"misses"`    // campaigns whose walkers froze one
	Evictions uint64 `json:"evictions"` // ladders dropped by the byte budget
	Entries   int    `json:"entries"`   // ladders currently cached
	Bytes     int64  `json:"bytes"`     // estimated resident bytes (conservative)
	Budget    int64  `json:"budget"`    // configured byte budget
}

// Stats returns the cache counters.
func (c *SnapshotCache) Stats() SnapshotStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SnapshotStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Budget:    c.budget,
	}
}
