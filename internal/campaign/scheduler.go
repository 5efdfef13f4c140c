package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/cpu"
	"merlin/internal/fault"
)

// Strategy selects how injection runs reproduce the pre-fault execution
// prefix. All strategies are bit-identical in outcome; they differ only in
// how much of the golden run is re-simulated per fault.
type Strategy uint8

const (
	// Replay re-executes every injection run from reset: O(F x avg_cycle)
	// pre-fault simulation. The comprehensive, assumption-free baseline.
	Replay Strategy = iota
	// Forked drives one sweep core through the golden run exactly once
	// and forks a clone per fault at its injection cycle: O(golden_cycles
	// + F x clone) pre-fault work.
	Forked
	numStrategies
)

var strategyNames = [numStrategies]string{"replay", "forked"}

// String returns the flag-style lowercase name.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// ParseStrategy maps a flag value to a Strategy, case-insensitively.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if strings.EqualFold(name, n) {
			return Strategy(s), nil
		}
	}
	return Replay, fmt.Errorf("unknown injection strategy %q (want replay or forked)", name)
}

// ForkSyncPoints is the most rungs the Forked strategy's ladder has past
// reset (CheckpointSchedule). Faulty continuations retry the hand-off at
// each rung cycle; where a SnapshotCache holds the ladder's snapshots, the
// sweep also jumps forward to them and re-roots its copy-on-write lineage
// there, and where it holds none, the sweep freezes them for the next
// campaign.
const ForkSyncPoints = 24

// Plan says how one campaign reproduces each fault's pre-fault prefix and
// where each faulty continuation stops. The zero value is the
// assumption-free baseline: replay from reset to program end.
type Plan struct {
	// Strategy picks the start snapshot and, with it, the early exit:
	//
	//	Replay  the reset state; no early exit
	//	Forked  at the fork, a flip into dead storage (cpu.Core.Dead) is
	//	        Masked with no clone; else a clone off one sweep of the
	//	        golden run, taken at the fault cycle, is handed off to the
	//	        interpreter as soon as it is quiescent after the flip; exit
	//	        where the flipped RF or SQ entry is overwritten unread
	//	        (cpu.Core.Watch), else at the first later rung cycle where
	//	        the run can be handed off
	Strategy Strategy
	// Cut, when non-nil, stops every run at the cut cycle and classifies by
	// the truncated scheme of RunFaultTruncated instead of at program end.
	// It replaces the golden argument of Run with Cut.Result; snapshots
	// then serve as starting points only (a truncated run has no early exit,
	// not even at the fork).
	Cut *TruncatedGolden
	// OnOutcome, when non-nil, is called once per classified fault with the
	// fault's index in the campaign's input list, from worker goroutines and
	// (for a fault dead at the flip) the goroutine feeding them,
	// concurrently and in completion (not input) order; it must be safe
	// for concurrent use and should return quickly.
	OnOutcome func(idx int, f fault.Fault, o Outcome)
}

// job hands one fault to a worker; core is its ready pre-fault clone under
// Forked and nil under Replay (the worker then clones the reset state).
type job struct {
	idx  int
	core *cpu.Core
}

// Run injects every fault in faults and classifies it against golden, in
// parallel, under plan. The outcome order matches the fault order, and
// outcomes are bit-identical across strategies and to the per-fault
// RunFault (RunFaultTruncated with plan.Cut) reference; strategies differ
// only in how much of the golden run is re-simulated per fault.
//
// Under Forked a single sweep core steps through the golden run exactly
// once, visiting the faults in ascending cycle order and handing a clone
// to the workers at each fault cycle, so the shared prefix is simulated
// once per campaign instead of once per fault. A fault whose bit lies in
// dead storage at its cycle is dead at the flip: the sweep classifies it
// Masked itself, with no clone (not under plan.Cut). The job channel is
// unbuffered and a worker releases its clone before it receives again, so
// at most workers + 1 clones are live (one per worker and the one being
// handed over): faults clustering late in the run cannot hold thousands
// of machine snapshots in memory.
//
// With r.Snapshots set, the Forked sweep jumps forward along the ladder the
// cache serves. On a miss it starts from the Runner's frozen reset state,
// as without a cache, and clones its core at each rung cycle it passes,
// stepping on to the last rung after the last fault; a campaign that was
// not cancelled stores that ladder in the cache. Every Replay fault starts
// from the reset state. The sweep is shared pre-fault work, counted once
// in Wall, Serial and SimCycles; an empty or already-cancelled campaign
// does none and asks the cache nothing. Cancellation is observed between
// faults: no new fault is dispatched once ctx is done, in-flight faults
// finish classification, the rest stay marked Cancelled, and the partial
// Result is returned together with ctx.Err().
func (r *Runner) Run(ctx context.Context, faults []fault.Fault, golden *cpu.RunResult, plan Plan) (*Result, error) {
	res := newResult(len(faults))
	start := time.Now()
	if len(faults) == 0 || ctx.Err() != nil {
		res.Wall = time.Since(start)
		return res, res.finalize(ctx)
	}
	if plan.Cut != nil {
		golden = &plan.Cut.Result
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(faults) {
		workers = len(faults)
	}

	var serialNS atomic.Int64
	var m runMetrics
	pool := r.pool
	// ladder holds the sweep's start and the rungs it may jump to: served
	// by the cache, or the reset state alone.
	var ladder *CheckpointSet
	var rungs []uint64 // the cycles a continuation retries the hand-off at
	key := r.ladderKey(golden.Cycles)
	if plan.Strategy == Forked && r.Snapshots != nil {
		ladder = r.Snapshots.Get(key)
		res.SnapshotHit = ladder != nil
	}
	if ladder == nil {
		ladder = &CheckpointSet{cycles: []uint64{0}, cores: []*cpu.Core{r.resetState(nil)}}
	}
	var sw *sweep
	var order []int // dispatch order; nil means input order
	if plan.Strategy == Forked {
		rungs = CheckpointSchedule(ForkSyncPoints, golden.Cycles)[1:]
		sw = &sweep{
			ladder: ladder, pool: pool, m: &m,
			core: m.clone(pool, ladder.cores[0]),
			next: 1,
		}
		if r.Snapshots != nil && !res.SnapshotHit {
			sw.frozen = &CheckpointSet{cycles: []uint64{0}, cores: []*cpu.Core{ladder.cores[0]}}
			sw.freeze = rungs
		}
		order = fault.SortedIndices(faults) // the sweep only moves forward
	}
	serialNS.Add(int64(time.Since(start)))

	record := func(idx int, o Outcome) {
		res.Outcomes[idx] = o
		if plan.OnOutcome != nil {
			plan.OnOutcome(idx, faults[idx], o)
		}
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := new(handOff)
			defer m.addHandOffs(h)
			for j := range jobs {
				t0 := time.Now()
				c := j.core
				if c == nil {
					c = m.clone(pool, ladder.cores[0])
				}
				from := c.Cycle()
				o := r.inject(c, faults[j.idx], golden, rungs, plan.Cut, h)
				m.simCycles.Add(c.Cycle() - from)
				// A released shell is scrubbed by copy-over on reuse, so
				// even a panicked run's shell is safe to recycle.
				pool.Release(c)
				serialNS.Add(int64(time.Since(t0)))
				record(j.idx, o)
			}
		}()
	}

	t0 := time.Now()
	done := ctx.Done()
feed:
	for n := range faults {
		// Non-blocking cancellation check first: when a worker is ready to
		// receive AND ctx is done, a bare two-case select would pick at
		// random and could keep dispatching past cancellation.
		select {
		case <-done:
			break feed
		default:
		}
		j := job{idx: n}
		if sw != nil {
			j.idx = order[n]
			f := faults[j.idx]
			sw.advance(f.Cycle)
			// A flip into dead storage leaves the sweep core masked-equivalent
			// to its flipped clone: Masked here, at no clone and no cycle.
			if plan.Cut == nil && sw.core.Dead(f.Structure, int(f.Entry)) {
				m.deadAtFlip.Add(1)
				record(j.idx, Masked)
				continue
			}
			j.core = m.clone(pool, sw.core)
		}
		select {
		case jobs <- j:
		case <-done:
			pool.Release(j.core) // nil under Replay
			break feed
		}
	}
	close(jobs)
	if sw != nil {
		if sw.frozen != nil && ctx.Err() == nil {
			sw.freezeBefore(math.MaxUint64)
			r.Snapshots.Put(key, sw.frozen)
		}
		sw.meter()
		serialNS.Add(int64(time.Since(t0)))
	}
	wg.Wait()
	if sw != nil {
		pool.Release(sw.core)
	}

	res.Wall = time.Since(start)
	res.Serial = time.Duration(serialNS.Load())
	m.fill(res)
	return res, res.finalize(ctx)
}

// sweep is the Forked start source: one core advanced through the golden
// run, forked at each fault cycle.
type sweep struct {
	ladder *CheckpointSet
	pool   *cpu.ClonePool
	m      *runMetrics
	core   *cpu.Core
	from   uint64 // cycle core was last rooted at
	next   int    // first ladder snapshot not yet crossed
	// frozen, on a SnapshotCache miss, is the ladder the sweep freezes as
	// it goes, and freeze the rung cycles it has yet to pass.
	frozen *CheckpointSet
	freeze []uint64
}

// advance steps the sweep to the pre-injection cycle of a fault at fc.
// Past a ladder snapshot (a reset-only ladder has none), the sweep jumps
// to a clone of the latest one instead of stepping there — bit-identical
// state by determinism — which also keeps the copy-on-write page pool the
// forks share with the ladder shallow. On a miss it freezes the rungs it
// passes instead.
func (s *sweep) advance(fc uint64) {
	root := -1
	for s.next < len(s.ladder.cycles) && s.ladder.cycles[s.next] < fc {
		root = s.next
		s.next++
	}
	if root >= 0 {
		s.meter()
		s.pool.Release(s.core)
		s.core = s.m.clone(s.pool, s.ladder.cores[root])
		s.from = s.core.Cycle()
	}
	s.freezeBefore(fc)
	for s.core.Cycle()+1 < fc && s.core.Halted() == cpu.Running {
		s.core.Step()
	}
}

// freezeBefore steps the sweep to each rung cycle before fc it has yet to
// pass and adds a clone of its core there to the frozen ladder.
func (s *sweep) freezeBefore(fc uint64) {
	for len(s.freeze) > 0 && s.freeze[0] < fc {
		for s.core.Cycle() < s.freeze[0] && s.core.Halted() == cpu.Running {
			s.core.Step()
		}
		s.frozen.cycles = append(s.frozen.cycles, s.core.Cycle())
		s.frozen.cores = append(s.frozen.cores, s.m.clone(s.pool, s.core))
		s.freeze = s.freeze[1:]
	}
}

// meter counts the cycles the sweep simulated since it was last rooted.
func (s *sweep) meter() {
	s.m.simCycles.Add(s.core.Cycle() - s.from)
}
