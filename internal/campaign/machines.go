package campaign

import (
	"slices"
	"sync"

	"merlin/internal/cpu"
	"merlin/internal/isa"
)

// machine is what every Runner of one program on one core configuration
// shares, since it depends on nothing else: the frozen reset state, the
// golden ladders, a clone pool and the golden checkpoints of the hand-off's
// convergence exit. Its fields other than the track are guarded by the
// machines lock.
type machine struct {
	prog *isa.Program
	cfg  cpu.Config

	// ladders[k] is the golden ladder of at most k rungs: the reset state
	// and the CheckpointSchedule(k, cycles) rungs of the fault-free run, a
	// Forked walk's segment starts. ladders[0] is the reset state alone.
	// rungs holds each frozen rung once, by cycle, so ladders of different
	// k share the rungs their schedules share: schedules nest, so an entry
	// holds at most the ForkSyncPoints schedule's rungs whatever ladders it
	// keeps.
	ladders [ForkSyncPoints + 1]*CheckpointSet
	rungs   map[uint64]*cpu.Core

	// pool recycles the shells of every campaign on the entry. It retains
	// at most what one saturated Run releases, one walker and one fork per
	// worker of the widest Run yet (poolFor), and its shells go with
	// the entry.
	pool *cpu.ClonePool

	trackOnce sync.Once
	track     *goldenTrack
}

// machines is the process-wide table of machine entries, the most recently
// used last. A daemon, a fleet worker or a benchmark builds a Runner per
// campaign or shard of the same few (program, config) pairs, and an
// artifact-cache hit runs no golden run of its own: the table gives it the
// ladder, pool and track of the last Runner that did.
var machines struct {
	sync.Mutex
	entries []*machine
}

// machinesKept bounds the table; an evicted entry still in use by a running
// campaign stays valid until it finishes.
const machinesKept = 8

// machineFor returns t's entry, made with its reset state the first time,
// evicting the least recently used entry past machinesKept.
func machineFor(t Target) *machine {
	m := &machines
	m.Lock()
	defer m.Unlock()
	if i := slices.IndexFunc(m.entries, func(e *machine) bool { return e.prog == t.Prog && e.cfg == t.Cfg }); i >= 0 {
		e := m.entries[i]
		m.entries = append(slices.Delete(m.entries, i, i+1), e)
		return e
	}
	reset := t.NewCore().Clone()
	e := &machine{prog: t.Prog, cfg: t.Cfg, rungs: map[uint64]*cpu.Core{0: reset}, pool: new(cpu.ClonePool)}
	e.ladders[0] = &CheckpointSet{cycles: []uint64{0}, cores: []*cpu.Core{reset}}
	if len(m.entries) == machinesKept {
		m.entries = slices.Delete(m.entries, 0, 1)
	}
	m.entries = append(m.entries, e)
	return e
}

// ladder returns the entry's k-rung golden ladder, nil if none was
// published.
func (e *machine) ladder(k int) *CheckpointSet {
	machines.Lock()
	defer machines.Unlock()
	return e.ladders[k]
}

// publish stores the k-rung golden ladder of a cycles-long fault-free run,
// taken from set, which holds every rung of CheckpointSchedule(k, cycles)
// (a freezing golden run's ladder, or a ladder a Forked walk froze at k or
// ForkSyncPoints rungs); a set missing one publishes nothing. The first
// ladder stored for k stays: every one is state-equal to
// BuildCheckpoints(k, cycles).
func (e *machine) publish(k int, cycles uint64, set *CheckpointSet) {
	if k == 0 {
		return
	}
	sched := CheckpointSchedule(k, cycles)
	machines.Lock()
	defer machines.Unlock()
	if e.ladders[k] != nil {
		return
	}
	l := &CheckpointSet{cycles: sched, cores: make([]*cpu.Core, len(sched))}
	for i, c := range sched {
		if l.cores[i] = e.rungs[c]; l.cores[i] == nil {
			j, ok := slices.BinarySearch(set.cycles, c)
			if !ok {
				return
			}
			l.cores[i] = set.cores[j]
		}
	}
	for i, c := range sched {
		e.rungs[c] = l.cores[i]
	}
	e.ladders[k] = l
}

// poolFor returns the entry's clone pool, retaining what a Run at workers
// releases: a walker and a fork per worker.
func (e *machine) poolFor(workers int) *cpu.ClonePool {
	e.pool.Retain(2 * workers)
	return e.pool
}

// goldenTrack returns the entry's golden checkpoints, built on first use
// by interpreting at most g instructions (buildGoldenTrack): nil if the
// run did not halt.
func (e *machine) goldenTrack(g uint64) *goldenTrack {
	e.trackOnce.Do(func() { e.track = buildGoldenTrack(e.prog, g) })
	return e.track
}
