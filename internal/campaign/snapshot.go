package campaign

import (
	"container/list"
	"sync"

	"merlin/internal/cpu"
)

// SnapshotKey identifies one checkpoint ladder: everything its machine
// snapshots depend on. Two campaigns agreeing on the key — regardless of
// fault list, seed, workers, or grouping knobs — can share one immutable
// CheckpointSet, because the ladder, frozen or replayed, is deterministic
// in (workload program, core configuration, golden length): it always
// holds ForkSyncPoints snapshots.
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

// LastCycle returns the cycle of the latest snapshot (0 for a reset-only
// set): the simulation work one BuildCheckpoints replay of it performs.
func (s *CheckpointSet) LastCycle() uint64 {
	return s.cycles[len(s.cycles)-1]
}

// DefaultSnapshotBudget bounds the resident bytes of cached checkpoint
// ladders: roughly a handful of full-size ladders on the paper's baseline
// configuration, small next to the daemon's working set.
const DefaultSnapshotBudget = 512 << 20

// SnapshotCache is a byte-budgeted LRU of checkpoint ladders: ladders
// stay in memory, keyed by everything they depend on, so concurrent and
// repeat campaigns over the same (workload, CPU config, golden length)
// share one immutable CheckpointSet. A Runner with a non-nil Snapshots
// field freezes its golden run's ladder straight into it, and every Forked
// campaign on such a Runner gets its ladder from it — served, or, after an
// artifact-cache hit skipped the golden run, replayed once
// (BuildCheckpoints, one golden-length pass) and shared. It is safe for
// concurrent use; concurrent GetOrBuild calls for one key are deduplicated
// so the ladder is built once and shared (every CheckpointSet is immutable
// and safe to clone from any number of goroutines).
//
// Sizes are estimated by CheckpointSet.MemBytes, a conservative
// (over-counting) bound, so heavy multi-tenant traffic cannot hold
// unbounded snapshots: the least-recently-used ladders are dropped once
// the budget is exceeded. The most recently built ladder is always
// retained even if it alone exceeds the budget — repeat campaigns must be
// able to hit. Evicted sets still in use by running campaigns stay valid;
// eviction only drops the cache's reference.
type SnapshotCache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[SnapshotKey]*snapEntry
	order    *list.List // front = most recently used
	inflight map[SnapshotKey]*snapBuild

	hits, misses, evictions uint64
}

type snapEntry struct {
	key   SnapshotKey
	set   *CheckpointSet
	bytes int64
	elem  *list.Element
}

// snapBuild tracks one in-progress ladder build; latecomers wait on done
// and share the result instead of building their own.
type snapBuild struct {
	done chan struct{}
	set  *CheckpointSet
}

// NewSnapshotCache returns a cache bounded to budget resident bytes;
// budget <= 0 means DefaultSnapshotBudget.
func NewSnapshotCache(budget int64) *SnapshotCache {
	if budget <= 0 {
		budget = DefaultSnapshotBudget
	}
	return &SnapshotCache{
		budget:   budget,
		entries:  make(map[SnapshotKey]*snapEntry),
		order:    list.New(),
		inflight: make(map[SnapshotKey]*snapBuild),
	}
}

// GetOrBuild returns the cached ladder for key, joining an in-progress
// build when one is underway, and otherwise builds, caches and returns it.
// hit reports that the caller was served without triggering a rebuild of
// its own. If the builder a waiter joined panicked (or produced nil), the
// waiter retries — becoming the next builder itself rather than handing a
// nil set to a scheduler.
func (c *SnapshotCache) GetOrBuild(key SnapshotKey, build func() *CheckpointSet) (*CheckpointSet, bool) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.order.MoveToFront(e.elem)
			c.hits++
			c.mu.Unlock()
			return e.set, true
		}
		if b, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-b.done
			if b.set != nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return b.set, true
			}
			continue // the build died; race to become the next builder
		}
		b := &snapBuild{done: make(chan struct{})}
		c.inflight[key] = b
		c.misses++
		c.mu.Unlock()
		return c.runBuild(key, b, build)
	}
}

// runBuild executes one ladder build outside the lock (construction
// replays a golden run and must not serialize unrelated campaigns) and
// publishes the result. On a panic the inflight slot is cleared with
// b.set still nil — waiters retry — and the panic propagates to the
// building campaign, which records it as failed.
func (c *SnapshotCache) runBuild(key SnapshotKey, b *snapBuild, build func() *CheckpointSet) (*CheckpointSet, bool) {
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(b.done)
	}()
	set := build()
	b.set = set
	if set == nil {
		return nil, false
	}

	c.mu.Lock()
	if _, ok := c.entries[key]; !ok { // a racing builder may have stored first
		e := &snapEntry{key: key, set: set, bytes: set.MemBytes()}
		e.elem = c.order.PushFront(e)
		c.entries[key] = e
		c.bytes += e.bytes
		c.evictLocked()
	}
	c.mu.Unlock()
	return set, false
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
	Hits      uint64 `json:"hits"`      // ladders served without a rebuild
	Misses    uint64 `json:"misses"`    // ladders built (once per unique key)
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
