package campaign

import (
	"slices"
	"sort"

	"merlin/internal/conformance"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/interp"
)

// CheckpointSet holds frozen machine snapshots at evenly spaced cycles of
// the fault-free run (CheckpointSchedule). RunFaultFrom clones the latest
// snapshot before a fault's cycle instead of replaying from reset — the
// run-acceleration technique of Chatzidimitriou & Gizopoulos (ISPASS
// 2016), which the paper notes is orthogonal to (and combinable with)
// MeRLiN — and a Forked campaign cuts its walk of the golden run at the
// rungs of one, so each segment starts from a clone of its rung instead of
// stepping there. A faulty continuation reads only the rung cycles, which
// CheckpointSchedule gives without any set.
type CheckpointSet struct {
	cycles []uint64
	cores  []*cpu.Core // frozen; accessed read-only via Clone
}

// ladderBase is the finest rung spacing of a checkpoint ladder: a run
// shorter than (k+1) x ladderBase cycles gets its rungs ladderBase apart.
const ladderBase = 256

// CheckpointSchedule returns the snapshot cycle schedule of an at most
// k-rung ladder over a goldenCycles-long run: the reset state at cycle 0,
// then every multiple of a spacing s before the run ends, s the smallest
// ladderBase x 2^j that leaves at most k of them. It is exactly the
// schedule a freezing golden run ends with (see freezer), a rule that needs
// no golden length up front, the one a Forked campaign's walkers freeze on
// a SnapshotCache miss (k = ForkSyncPoints), and the one BuildCheckpoints
// replays. Schedules of one run nest: every rung of a k-rung schedule is a
// rung of any schedule with more. Past reset, its cycles are where a Forked
// continuation retries the hand-off, whether or not a ladder holds
// snapshots there.
func CheckpointSchedule(k int, goldenCycles uint64) []uint64 {
	last := max(goldenCycles, 1) - 1 // the last cycle the run is still going
	s := uint64(ladderBase)
	for last/s > uint64(k) {
		s *= 2
	}
	sched := make([]uint64, 1, last/s+1)
	for c := s; c <= last; c += s {
		sched = append(sched, c)
	}
	return sched
}

// BuildCheckpoints replays the fault-free run once, freezing the
// CheckpointSchedule(k, goldenCycles) snapshots (plus the reset state): the
// reference the ladders a golden run and a Forked campaign's walkers freeze
// are tested against. The returned set
// is immutable and safe for concurrent use. Every snapshot is cloned off
// the same replay core, so the whole set shares one copy-on-write lineage
// across memory pages and cache sets.
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

// freezer builds an at most k-rung ladder off a core while it runs, before
// the run's length is known: a rung at every multiple of the spacing, and
// whenever more than k accumulate, every other one is dropped and the
// spacing doubled. Dropped rungs' shells go back to pool, where the
// campaign's forks pick them up. The ladder it ends with is
// BuildCheckpoints(k, cycles) for the run's length.
type freezer struct {
	k     int
	every uint64
	pool  *cpu.ClonePool
	set   *CheckpointSet
}

// newFreezer starts a ladder at the frozen reset state.
func newFreezer(k int, reset *cpu.Core, pool *cpu.ClonePool) *freezer {
	return &freezer{k: k, every: ladderBase, pool: pool,
		set: &CheckpointSet{cycles: []uint64{0}, cores: []*cpu.Core{reset}}}
}

// run is c.Run(maxCycles), freezing the ladder's rungs on the way.
func (f *freezer) run(c *cpu.Core, maxCycles uint64) cpu.RunResult {
	for c.Halted() == cpu.Running {
		next := (c.Cycle()/f.every + 1) * f.every
		if next >= maxCycles {
			break
		}
		for c.Cycle() < next && c.Halted() == cpu.Running {
			c.Step()
		}
		if c.Halted() == cpu.Running {
			f.freeze(c)
		}
	}
	return c.Run(maxCycles)
}

// freeze adds a rung at c's cycle, a multiple of the spacing. A full
// ladder is thinned first, the spacing doubled, and c's cycle frozen only
// if it is a multiple of the new one, so the ladder never holds more than
// k rungs and never clones a rung the thinning would drop.
func (f *freezer) freeze(c *cpu.Core) {
	s := f.set
	if len(s.cycles)-1 == f.k {
		f.every *= 2
		kept := 1 // the reset state stays
		for i := 1; i < len(s.cycles); i++ {
			if s.cycles[i]%f.every == 0 {
				s.cycles[kept], s.cores[kept] = s.cycles[i], s.cores[i]
				kept++
			} else {
				f.pool.Release(s.cores[i])
			}
		}
		clear(s.cores[kept:])
		s.cycles, s.cores = s.cycles[:kept], s.cores[:kept]
		if c.Cycle()%f.every != 0 {
			return
		}
	}
	s.cycles = append(s.cycles, c.Cycle())
	s.cores = append(s.cores, f.pool.Clone(c))
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
// core's RenameSeq at the flip) to its classification. With rung cycles
// given, the run is first handed off to the interpreter (handOff) as soon
// as it is quiescent, a few cycles after the flip whatever the program's
// length. A run the interpreter cannot decide continues in detail and
// tries the hand-off again at each later rung cycle. Only a run that can
// decide neither way continues past the last one to program end, so
// outcomes are bit-identical to a full replay. With no rungs (Replay,
// RunFault) it is the detailed run alone; h may then be nil.
func (r *Runner) classifyAgainst(c *cpu.Core, f fault.Fault, injSeq uint64, golden *cpu.RunResult, rungs []uint64, h *handOff) Outcome {
	if len(rungs) > 0 {
		if o, ok := r.handOff(c, f, injSeq, golden, h); ok {
			return o
		}
		next, _ := slices.BinarySearch(rungs, c.Cycle()+1)
		for _, rung := range rungs[next:] {
			for c.Cycle() < rung && c.Halted() == cpu.Running {
				c.Step()
			}
			if c.Halted() != cpu.Running {
				break
			}
			if o, ok := r.handOff(c, f, injSeq, golden, h); ok {
				return o
			}
		}
	}
	res := c.Run(timeoutFactor * golden.Cycles)
	return Classify(res, golden)
}

// handOff is one worker's hand-off scratch: the interpreter it restarts
// for every attempt, and what its attempts and watch exits came to.
type handOff struct {
	m           interp.Machine
	handOffs    int64  // runs the interpreter classified
	fellBack    int64  // attempts that returned to the detailed core
	interpInsts uint64 // instructions interpreted, either way
	overwritten int64  // runs the overwrite watch ended Masked
	converged   int64  // hand-offs the convergence exit decided
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
// nothing had been tried. A wait that sees the overwrite watch end masked
// decides the run Masked there. A hand-off falls back when the core does
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
// A run whose state meets the golden run's at a golden checkpoint stops
// there (interpret): its result is then known exactly, and the same rules
// judge it.
func (r *Runner) handOff(c *cpu.Core, f fault.Fault, injSeq uint64, golden *cpu.RunResult, h *handOff) (o Outcome, ok bool) {
	pc, quiet := c.Quiescent(injSeq)
	for n := 0; !quiet && n < handOffWait && c.Halted() == cpu.Running; n++ {
		c.Step()
		if c.Watch() == cpu.WatchMasked {
			h.overwritten++
			return Masked, true
		}
		pc, quiet = c.Quiescent(injSeq)
	}
	limit := timeoutFactor * golden.Cycles
	if !quiet || c.Cycle() >= limit {
		return 0, false
	}
	rem := limit - c.Cycle()
	h.m.Reset(r.Prog, pc, c.CommittedRegs(), c)
	if addr, unsettled := c.UnsettledByte(f.Structure, int(f.Entry), int(f.Bit)); unsettled {
		h.m.Watch(addr)
	}
	res, converged := r.interpret(c, golden, h, uint64(c.Cfg.CommitWidth)*rem)
	h.interpInsts += h.m.Steps()
	switch {
	case res.Halt == interp.StepLimit:
		h.handOffs++
		if converged {
			h.converged++
		}
		return Timeout, true
	case res.Halt == interp.WatchTrip, res.Steps > rem*golden.Stats.CommittedInsts/(2*golden.Cycles):
		h.fellBack++
		return 0, false
	}
	h.handOffs++
	if converged {
		h.converged++
		return Masked, true
	}
	// The core's logs may share backing with the snapshot it was cloned
	// off: compare the two halves in place instead of appending them.
	return classify(conformance.CoreHalt(res.Halt), c.Output(), res.Output, c.ExcLog(), res.ExcLog, golden), true
}

// RunFaultFrom injects f starting from the nearest checkpoint and
// classifies against the golden run, trying the hand-off at the set's rung
// cycles. Results are bit-identical to RunFault: the snapshot is exactly
// the state a from-reset replay reaches, and the continuation leaves the
// detailed core only where the rest of the run is provably decided (see
// classifyAgainst), so a fault costs a few inter-snapshot segments instead
// of the rest of the run.
func (r *Runner) RunFaultFrom(set *CheckpointSet, f fault.Fault, golden *cpu.RunResult) Outcome {
	return r.inject(set.before(f.Cycle).Clone(), f, golden, set.cycles[1:], nil, new(handOff))
}
