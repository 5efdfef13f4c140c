package campaign

import (
	"sort"

	"merlin/internal/cpu"
	"merlin/internal/fault"
)

// CheckpointSet holds frozen machine snapshots at evenly spaced cycles of
// the fault-free run. Injection runs clone the latest snapshot before
// their fault cycle instead of replaying from reset — the run-acceleration
// technique of Chatzidimitriou & Gizopoulos (ISPASS 2016), which the paper
// notes is orthogonal to (and combinable with) MeRLiN. The snapshots also
// serve as the convergence ladder: a faulty continuation that becomes
// masked-equivalent to the golden state at a snapshot cycle provably ends
// with the golden outcome and stops simulating there.
type CheckpointSet struct {
	cycles []uint64
	cores  []*cpu.Core // frozen; accessed read-only via Clone
}

// CheckpointSchedule returns the snapshot cycle schedule BuildCheckpoints
// aims at for k snapshots over a goldenCycles-long run: the reset state at
// cycle 0 plus k evenly spaced target cycles. The golden-run artifact
// cache persists this schedule so operators can see where a campaign's
// sync points sit without rebuilding the machine snapshots (which are not
// serializable and are instead rebuilt deterministically in one pass).
func CheckpointSchedule(k int, goldenCycles uint64) []uint64 {
	s := make([]uint64, 1, k+1)
	for i := 1; i <= k; i++ {
		s = append(s, goldenCycles*uint64(i)/uint64(k+1))
	}
	return s
}

// BuildCheckpoints replays the fault-free run once, freezing k snapshots
// (plus the reset state). The returned set is immutable and safe for
// concurrent use. Every snapshot is cloned off the same replay core, so
// the whole set shares one copy-on-write lineage across memory pages and
// cache sets: clones of one snapshot compare against another mostly by
// pointer.
func (r *Runner) BuildCheckpoints(k int, goldenCycles uint64) *CheckpointSet {
	c := r.NewCore()
	set := &CheckpointSet{
		cycles: []uint64{0},
		cores:  []*cpu.Core{c.Clone()},
	}
	for _, target := range CheckpointSchedule(k, goldenCycles)[1:] {
		for c.Cycle() < target && c.Halted() == cpu.Running {
			c.Step()
		}
		if c.Halted() != cpu.Running {
			break
		}
		set.cycles = append(set.cycles, c.Cycle())
		set.cores = append(set.cores, c.Clone())
	}
	return set
}

// Cycles returns a copy of the snapshot schedule (cycle 0 = reset state,
// then the frozen mid-run cycles, ascending). The golden-run artifact
// cache persists it so operators can inspect where a campaign's sync
// points sit without rebuilding the snapshots.
func (s *CheckpointSet) Cycles() []uint64 {
	out := make([]uint64, len(s.cycles))
	copy(out, s.cycles)
	return out
}

// before returns the latest snapshot strictly usable for a fault injected
// at the start of cycle fc (its cycle must be <= fc-1). fc == 0 faults
// apply at the reset state, so clamp the pre-fault cycle at 0 instead of
// letting fc-1 wrap to ^uint64(0) and select a snapshot after the fault.
func (s *CheckpointSet) before(fc uint64) *cpu.Core {
	pre := uint64(0)
	if fc > 0 {
		pre = fc - 1
	}
	i := sort.Search(len(s.cycles), func(i int) bool { return s.cycles[i] > pre })
	return s.cores[i-1]
}

// classifyAgainst runs faulty clone c (fault already applied) to its
// classification. At each golden ladder snapshot past the injection cycle
// the continuation pauses; if its machine state is masked-equivalent to
// the fault-free state at that cycle (identical up to provably dead
// storage, see cpu.MaskedEquivalent), the rest of the run provably
// replays the golden run and the fault is Masked. Faults that never
// re-converge run to their natural classification, so outcomes are
// bit-identical to a full replay. A nil ladder skips the early exit.
func (r *Runner) classifyAgainst(c *cpu.Core, golden *cpu.RunResult, ladder *CheckpointSet) Outcome {
	if ladder != nil {
		for i := sort.Search(len(ladder.cycles), func(i int) bool { return ladder.cycles[i] > c.Cycle() }); i < len(ladder.cycles); i++ {
			for c.Cycle() < ladder.cycles[i] && c.Halted() == cpu.Running {
				c.Step()
			}
			if c.Halted() != cpu.Running {
				break
			}
			if cpu.MaskedEquivalent(c, ladder.cores[i]) {
				return Masked
			}
		}
	}
	res := c.Run(r.TimeoutFactor * golden.Cycles)
	return Classify(res, golden)
}

// RunFaultFrom injects f starting from the nearest checkpoint and
// classifies against the golden run. Results are bit-identical to
// RunFault: the snapshot is exactly the state a from-reset replay reaches,
// and the continuation stops early only at a snapshot it is provably
// masked-equivalent to, so masked faults cost at most one inter-snapshot
// segment instead of the rest of the run.
func (r *Runner) RunFaultFrom(set *CheckpointSet, f fault.Fault, golden *cpu.RunResult) Outcome {
	return r.inject(set.before(f.Cycle).Clone(), f, golden, set, nil)
}
