package campaign

import (
	"sort"

	"merlin/internal/conformance"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/interp"
)

// CheckpointSet holds frozen machine snapshots at evenly spaced cycles of
// the fault-free run. RunFaultFrom clones the latest snapshot before a
// fault's cycle instead of replaying from reset — the run-acceleration
// technique of Chatzidimitriou & Gizopoulos (ISPASS 2016), which the paper
// notes is orthogonal to (and combinable with) MeRLiN; the Forked sweep
// re-roots itself on them. The snapshots also serve as the convergence
// ladder: a faulty continuation that becomes masked-equivalent to the
// golden state at a snapshot cycle provably ends with the golden outcome
// and stops simulating there.
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

// classifyAgainst runs faulty clone c (fault f already applied, injSeq the
// core's RenameSeq at the flip) to its classification. At each golden
// ladder snapshot past the injection cycle the continuation pauses. If its
// machine state is masked-equivalent to the fault-free state at that cycle
// (identical up to provably dead storage, see cpu.MaskedEquivalent), the
// rest of the run provably replays the golden run and the fault is Masked.
// Otherwise the run is handed off to the interpreter (handOff), and only a
// run that can decide neither way continues in detail to the next
// snapshot, and after the last one to program end, so outcomes are
// bit-identical to a full replay. A nil ladder, or one with no snapshot
// past the injection, is the detailed run alone; h may then be nil.
func (r *Runner) classifyAgainst(c *cpu.Core, f fault.Fault, injSeq uint64, golden *cpu.RunResult, ladder *CheckpointSet, h *handOff) Outcome {
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
			if o, ok := r.handOff(c, f, injSeq, golden, h); ok {
				return o
			}
		}
	}
	res := c.Run(r.TimeoutFactor * golden.Cycles)
	return Classify(res, golden)
}

// handOff is one worker's hand-off scratch: the interpreter it restarts
// for every attempt, and what its attempts came to.
type handOff struct {
	m           interp.Machine
	handOffs    int64  // runs the interpreter classified
	fellBack    int64  // attempts that returned to the detailed core
	interpInsts uint64 // instructions interpreted, either way
}

// handOffWait bounds the cycles a hand-off steps the detailed core waiting
// for it to become quiescent. They are cycles a fall-back would simulate
// anyway.
const handOffWait = 128

// handOff tries to finish faulty core c's run on the architectural
// interpreter. Once c is quiescent with respect to the fault
// (cpu.Core.Quiescent), what is left of the run is a function of its
// committed state, which the interpreter — certified equal to the core at
// every retire by internal/conformance — computes without stepping cycles.
// The core is stepped only while waiting, as a fall-back would step it, and
// otherwise only read, so when ok is false the caller continues it as if
// nothing had been tried. That happens when the core does
// not become quiescent within handOffWait cycles, when the flip sits in a
// clean L1D line (cpu.Core.UnsettledByte) and the program loads the byte
// again — a clean eviction may or may not have erased it by then — and when
// the interpreter cannot tell Timeout, a class of cycles, from the
// architectural ones. With rem the cycles left before the timeout: a run
// still going after CommitWidth x rem instructions is Timeout, because no
// more can retire in rem cycles; a run ending after N instructions is taken
// to end in time only if the core could spend twice the golden run's
// cycles per instruction on them (the one judgement here that is measured,
// by the differential tests, not proved); anything in between falls back.
func (r *Runner) handOff(c *cpu.Core, f fault.Fault, injSeq uint64, golden *cpu.RunResult, h *handOff) (o Outcome, ok bool) {
	pc, quiet := c.Quiescent(injSeq)
	for n := 0; !quiet && n < handOffWait && c.Halted() == cpu.Running; n++ {
		c.Step()
		pc, quiet = c.Quiescent(injSeq)
	}
	limit := r.TimeoutFactor * golden.Cycles
	if !quiet || c.Cycle() >= limit {
		return 0, false
	}
	rem := limit - c.Cycle()
	h.m.Reset(r.Prog, pc, c.CommittedRegs(), c)
	if addr, unsettled := c.UnsettledByte(f.Structure, int(f.Entry), int(f.Bit)); unsettled {
		h.m.Watch(addr)
	}
	h.m.Run(uint64(c.Cfg.CommitWidth) * rem)
	res := h.m.Result()
	h.interpInsts += res.Steps
	switch {
	case res.Halt == interp.StepLimit:
		h.handOffs++
		return Timeout, true
	case res.Halt == interp.WatchTrip, res.Steps > rem*golden.Stats.CommittedInsts/(2*golden.Cycles):
		h.fellBack++
		return 0, false
	}
	h.handOffs++
	// The core's logs may share backing with the ladder's: compare the two
	// halves in place instead of appending them.
	return classify(conformance.CoreHalt(res.Halt), c.Output(), res.Output, c.ExcLog(), res.ExcLog, golden), true
}

// RunFaultFrom injects f starting from the nearest checkpoint and
// classifies against the golden run. Results are bit-identical to
// RunFault: the snapshot is exactly the state a from-reset replay reaches,
// and the continuation leaves the detailed core only where the rest of the
// run is provably decided (see classifyAgainst), so a fault costs a few
// inter-snapshot segments instead of the rest of the run.
func (r *Runner) RunFaultFrom(set *CheckpointSet, f fault.Fault, golden *cpu.RunResult) Outcome {
	return r.inject(set.before(f.Cycle).Clone(), f, golden, set, nil, new(handOff))
}
