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
// in (workload program, core configuration, snapshot count, golden
// length).
type SnapshotKey struct {
	// Workload names the target program (Target.Prog.Name).
	Workload string
	// CPU is the full core configuration.
	CPU cpu.Config
	// K is the snapshot count requested from BuildCheckpoints.
	K int
	// GoldenCycles is the fault-free run length the schedule spans.
	GoldenCycles uint64
}

// runnerLadder is a Runner's one Forked ladder: key says what it was
// built for, hit that a SnapshotCache served it.
type runnerLadder struct {
	key SnapshotKey
	set *CheckpointSet
	hit bool
}

// ladderKey is the SnapshotKey of the Runner's Forked ladder over a
// goldenCycles-long run.
func (r *Runner) ladderKey(goldenCycles uint64) SnapshotKey {
	return SnapshotKey{Workload: r.Prog.Name, CPU: r.Cfg, K: ForkSyncPoints, GoldenCycles: goldenCycles}
}

// hasLadder reports whether the Runner already holds its Forked ladder.
func (r *Runner) hasLadder() bool {
	r.ladderMu.Lock()
	defer r.ladderMu.Unlock()
	return r.forked != nil
}

// adoptLadder keeps set, frozen during a goldenCycles-long golden run, as
// the Runner's ladder, and seeds Snapshots with it (a ladder Snapshots
// already holds is kept instead: the two are state-equal).
func (r *Runner) adoptLadder(set *CheckpointSet, goldenCycles uint64) {
	key := r.ladderKey(goldenCycles)
	if r.Snapshots != nil {
		set, _ = r.Snapshots.GetOrBuild(key, func() *CheckpointSet { return set })
	}
	r.ladderMu.Lock()
	defer r.ladderMu.Unlock()
	if r.forked == nil {
		r.forked = &runnerLadder{key: key, set: set}
	}
}

// forkLadder returns the Forked ladder for a goldenCycles-long run, the
// cycles simulated to get it, and whether r.Snapshots served it. The
// Runner's own ladder — frozen during its golden run, or served or
// replayed by its first campaign — costs nothing; any other is served by
// r.Snapshots when one is attached and replayed by BuildCheckpoints
// otherwise, and becomes the Runner's own when it has none.
func (r *Runner) forkLadder(goldenCycles uint64) (set *CheckpointSet, built uint64, hit bool) {
	key := r.ladderKey(goldenCycles)
	r.ladderMu.Lock()
	defer r.ladderMu.Unlock()
	if l := r.forked; l != nil && l.key == key {
		return l.set, 0, l.hit
	}
	build := func() *CheckpointSet { return r.BuildCheckpoints(ForkSyncPoints, goldenCycles) }
	if r.Snapshots != nil {
		set, hit = r.Snapshots.GetOrBuild(key, build)
	} else {
		set = build()
	}
	if !hit {
		built = set.LastCycle()
	}
	if r.forked == nil {
		r.forked = &runnerLadder{key: key, set: set, hit: hit}
	}
	return set, built, hit
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
// field seeds it with the ladder its golden run froze, and a Runner that
// ran no golden run (an artifact-cache hit) asks it before replaying one
// (BuildCheckpoints, one golden-length pass). It is safe for concurrent
// use; concurrent GetOrBuild calls for one key are deduplicated so the
// ladder is built once and shared (every CheckpointSet is immutable and safe to clone
// from any number of goroutines).
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
