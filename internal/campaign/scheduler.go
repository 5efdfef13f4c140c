package campaign

import (
	"context"
	"fmt"
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

// MarshalText renders the flag-style name, so JSON carrying a Strategy
// reads "forked" instead of a bare int.
func (s Strategy) MarshalText() ([]byte, error) {
	if int(s) >= len(strategyNames) {
		return nil, fmt.Errorf("cannot marshal unknown strategy %d", uint8(s))
	}
	return []byte(strategyNames[s]), nil
}

// UnmarshalText parses a strategy name case-insensitively, round-tripping
// MarshalText.
func (s *Strategy) UnmarshalText(text []byte) error {
	v, err := ParseStrategy(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ForkSyncPoints is the most golden snapshots the Forked strategy's
// ladder holds past reset (CheckpointSchedule; the golden run freezes
// them as it goes). They serve double duty: the sweep re-roots its
// copy-on-write lineage at each one, and faulty continuations compare
// their state against them to exit early once a fault provably converged
// back to the golden run.
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
	//	        (cpu.Core.Watch), else at the first of the ladder's later
	//	        snapshots where the run is masked-equivalent or can be
	//	        handed off
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

// planLadder returns the plan's checkpoint set for a goldenCycles-long run,
// the cycles simulated to get it and whether r.Snapshots served it.
// Replay's reset-only set is built inline: it costs no simulation, so it
// never goes through the Runner's ladder.
func (r *Runner) planLadder(plan Plan, goldenCycles uint64) (set *CheckpointSet, built uint64, hit bool) {
	if plan.Strategy == Forked {
		return r.forkLadder(goldenCycles)
	}
	return r.BuildCheckpoints(0, goldenCycles), 0, false
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
// The Forked ladder is the Runner's one ladder (forkLadder): frozen
// during its golden run, or on a Runner that ran none (an artifact-cache
// hit) served by a SnapshotCache or replayed by its first Forked campaign,
// which alone counts that replay. The replay and the sweep are shared
// pre-fault work, counted once in Wall, Serial and SimCycles. An empty or
// already-cancelled campaign does neither. Cancellation is observed
// between faults: no new fault is dispatched once ctx is done, in-flight
// faults finish classification, the rest stay marked Cancelled, and the
// partial Result is returned together with ctx.Err().
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
	ladder, built, hit := r.planLadder(plan, golden.Cycles)
	m.simCycles.Add(built)
	res.SnapshotHit = hit
	serialNS.Add(int64(time.Since(start)))

	var sw *sweep
	var order []int // dispatch order; nil means input order
	if plan.Strategy == Forked {
		sw = &sweep{
			ladder: ladder, pool: pool, m: &m,
			core: m.clone(pool, ladder.cores[0]),
			next: 1,
		}
		order = fault.SortedIndices(faults) // the sweep only moves forward
	}
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
				o := r.inject(c, faults[j.idx], golden, ladder, plan.Cut, h)
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
}

// advance steps the sweep to the pre-injection cycle of a fault at fc.
// Crossing a ladder snapshot, the sweep re-roots itself on a clone of it —
// bit-identical state by determinism — so the copy-on-write page pool the
// forks share with the ladder stays shallow and state comparisons skip
// everything the segment never wrote.
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
	for s.core.Cycle()+1 < fc && s.core.Halted() == cpu.Running {
		s.core.Step()
	}
}

// meter counts the cycles the sweep simulated since it was last rooted.
func (s *sweep) meter() {
	s.m.simCycles.Add(s.core.Cycle() - s.from)
}
