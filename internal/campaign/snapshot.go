package campaign

import "merlin/internal/cpu"

// SnapshotKey identifies one checkpoint ladder: everything its machine
// snapshots depend on. Two campaigns agreeing on the key — regardless of
// fault list, seed, workers, or grouping knobs — can share one immutable
// CheckpointSet, because BuildCheckpoints is deterministic in (workload
// program + Init, core configuration, snapshot count, golden length).
type SnapshotKey struct {
	// Workload names the target program (Target.Prog.Name); the
	// registered workload's Init is deterministic per name.
	Workload string
	// CPU is the full core configuration.
	CPU cpu.Config
	// K is the snapshot count requested from BuildCheckpoints.
	K int
	// GoldenCycles is the fault-free run length the schedule spans.
	GoldenCycles uint64
}

// SnapshotSource serves prebuilt checkpoint ladders across campaigns. A
// Runner with a non-nil Snapshots field asks it before building a ladder;
// hit reports whether the set was served without a rebuild (the daemon's
// snapshot cache wires its LRU here and exports the hit rate on /statsz).
//
// Implementations must return only immutable sets: every core in a served
// CheckpointSet is a frozen snapshot that concurrent campaigns clone but
// never step, which is exactly what BuildCheckpoints produces.
type SnapshotSource interface {
	GetOrBuild(key SnapshotKey, build func() *CheckpointSet) (set *CheckpointSet, hit bool)
}

// ladder returns the k-snapshot checkpoint set for a goldenCycles-long
// run, served from r.Snapshots when one is attached (hit reports a served
// set) and built fresh otherwise.
func (r *Runner) ladder(k int, goldenCycles uint64) (set *CheckpointSet, hit bool) {
	if r.Snapshots == nil {
		return r.BuildCheckpoints(k, goldenCycles), false
	}
	key := SnapshotKey{Workload: r.Prog.Name, CPU: r.Cfg, K: k, GoldenCycles: goldenCycles}
	return r.Snapshots.GetOrBuild(key, func() *CheckpointSet {
		return r.BuildCheckpoints(k, goldenCycles)
	})
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
// set): the simulation work one ladder build performs.
func (s *CheckpointSet) LastCycle() uint64 {
	return s.cycles[len(s.cycles)-1]
}
