package campaign

import (
	"context"
	"fmt"
	"math"
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
	// Forked walks the golden run once, in segments between checkpoint
	// rungs that the workers walk in parallel, and forks a clone per fault
	// at its injection cycle: O(golden_cycles + F x clone) pre-fault work.
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
// each rung cycle; where a SnapshotCache holds the ladder's snapshots, Run
// also cuts its walk of the golden run at them, and where it holds none,
// the walkers freeze them for the next campaign.
const ForkSyncPoints = 24

// Plan says how one campaign reproduces each fault's pre-fault prefix and
// where each faulty continuation stops. The zero value is the
// assumption-free baseline: replay from reset to program end.
type Plan struct {
	// Strategy picks the start snapshot and, with it, the early exit:
	//
	//	Replay  the reset state; no early exit
	//	Forked  at the fork, a flip into dead storage (cpu.Core.Dead) is
	//	        Masked with no clone; else a clone off one walk of the
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
	// fault's index in the campaign's input list, from worker goroutines,
	// concurrently and in completion (not input) order; it must be safe
	// for concurrent use and should return quickly.
	OnOutcome func(idx int, f fault.Fault, o Outcome)
}

// Run injects every fault in faults and classifies it against golden, in
// parallel, under plan. The outcome order matches the fault order, and
// outcomes are bit-identical across strategies and to the per-fault
// RunFault (RunFaultTruncated with plan.Cut) reference; strategies differ
// only in how much of the golden run is re-simulated per fault.
//
// Under Forked the golden run is walked once per campaign, not once per
// fault, in segments: the cycle-sorted list is cut at the rungs of the
// best ladder at hand — the ForkSyncPoints-rung one r.Snapshots serves,
// else the process's golden ladder for the Runner's program, core config
// and rung count (the rungs a RunGolden froze, or a walk published), else
// the reset state alone, which makes one segment — and each worker takes
// the next segment in cycle order, clones its rung and steps the clone
// (the walker) through the segment's faults. At each fault cycle it forks a clone off the
// walker and hands it to an idle worker; when no worker is idle it parks
// the rest of its walk for the first worker that becomes idle, itself
// included, and classifies the fork itself. A worker resumes a parked walk
// before it starts a new segment, and one with no segment left resumes
// the others' walks or classifies their forks. A fault whose bit lies in
// dead storage at its cycle is dead at the flip: the walker classifies it
// Masked itself, with no clone (not under plan.Cut). Each worker holds at
// most one walk and one fork, so at most the ladder's rungs plus 2 x
// workers clones are live: faults clustering late in the run cannot hold
// thousands of machine snapshots in memory. Replay has no walk: each worker takes the next fault in list
// order and starts it from a clone of the reset state.
//
// On a SnapshotCache miss each walker also freezes a clone at each
// CheckpointSchedule(ForkSyncPoints, cycles) rung inside its segment,
// stepping on past its last fault to the segment's last rung, and a
// campaign that was not cancelled stores the ladder once every segment is
// done, and publishes its k-rung subset as the golden ladder if the
// process has none. Without a cache and without a golden ladder (at more
// than one worker, outside plan.Cut) the one walker freezes the
// CheckpointSchedule(k, cycles) rungs instead, and an uncancelled campaign
// publishes them, so the next campaign walks in parallel. Clones come from
// and go back to the clone pool every Runner of the program and core
// config shares. The walks are shared pre-fault work, counted once in
// Serial and SimCycles; an empty or already-cancelled campaign does none
// and asks the cache nothing. OnOutcome is called in completion order, from the
// workers. Cancellation is observed between faults: no fault is forked or
// started once ctx is done, forks already taken finish classification,
// the rest stay marked Cancelled, and the partial Result is returned
// together with ctx.Err().
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
	e, k := machineFor(r.Target), r.ladderRungs()
	workers := min(r.workers(), len(faults))
	s := &scheduler{
		r: r, faults: faults, golden: golden, plan: plan, res: res,
		pool: e.poolFor(workers), done: ctx.Done(), forks: make(chan fork),
	}
	ladder := e.ladders[0]
	var key SnapshotKey
	var freeze []uint64 // the rungs to freeze: on a SnapshotCache miss, or with no golden ladder
	if plan.Strategy == Forked {
		sched := CheckpointSchedule(ForkSyncPoints, golden.Cycles)
		s.rungs = sched[1:]
		if l := e.ladder(k); l != nil {
			ladder = l
		}
		switch {
		case r.Snapshots != nil:
			key = r.ladderKey(golden.Cycles)
			if cached := r.Snapshots.Get(key); cached != nil {
				ladder, res.SnapshotHit = cached, true
			} else {
				freeze = sched
			}
		case ladder == e.ladders[0] && k > 0 && plan.Cut == nil:
			freeze = CheckpointSchedule(k, golden.Cycles)
		}
		// A walker only moves forward.
		s.segs = cutSegments(ladder, faults, fault.SortedIndices(faults), freeze)
		s.open.Store(int64(len(s.segs)))
		s.parked = make(chan *segment, len(s.segs))
	}
	s.serialNS.Add(int64(time.Since(start)))

	var next atomic.Int64 // the next Replay fault
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := new(handOff)
			defer s.m.addHandOffs(h)
			// Serial is the time each worker is busy: walking (with the
			// fork it classifies itself) or classifying a fork it was
			// handed or a Replay fault.
			if s.segs == nil {
				// Replay: each worker takes the next fault and starts it
				// from a clone of the reset state.
				for i := next.Add(1) - 1; i < int64(len(faults)) && !s.cancelled(); i = next.Add(1) - 1 {
					t0 := time.Now()
					s.classify(fork{int(i), s.m.clone(s.pool, ladder.cores[0])}, h)
					s.serialNS.Add(int64(time.Since(t0)))
				}
				return
			}
			for {
				sg, f, ok := s.task()
				if !ok {
					return
				}
				t0 := time.Now()
				if sg != nil {
					s.walk(sg, h)
				} else {
					s.classify(f, h)
				}
				s.serialNS.Add(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	if freeze != nil && ctx.Err() == nil {
		set := new(CheckpointSet)
		for _, sg := range s.segs {
			set.cycles = append(set.cycles, sg.frozen.cycles...)
			set.cores = append(set.cores, sg.frozen.cores...)
		}
		if r.Snapshots != nil {
			r.Snapshots.Put(key, set)
		}
		if plan.Cut == nil { // schedules nest: set holds the k-rung ladder
			e.publish(k, golden.Cycles, set)
		}
	}

	res.Wall = time.Since(start)
	res.Serial = time.Duration(s.serialNS.Load())
	s.m.fill(res)
	return res, res.finalize(ctx)
}

// scheduler is one Run's shared state.
type scheduler struct {
	r      *Runner
	faults []fault.Fault
	golden *cpu.RunResult
	plan   Plan
	res    *Result
	pool   *cpu.ClonePool
	done   <-chan struct{}
	rungs  []uint64 // the cycles a continuation retries the hand-off at

	// Forked only: the segments, those not yet started from segs[started:],
	// the walks parked by a walker classifying a fork itself, and the forks
	// handed to idle workers. open counts the segments not finished; the
	// walker that finishes the last closes parked and forks.
	segs    []segment
	started atomic.Int64
	parked  chan *segment
	forks   chan fork
	open    atomic.Int64

	m        runMetrics
	serialNS atomic.Int64
}

// fork is one faulty run handed from a walker to an idle worker: the
// fault's index in the campaign's list and its pre-fault clone.
type fork struct {
	idx  int
	core *cpu.Core
}

// segment is one stretch of the golden run, walked by one worker at a
// time: from a clone of its rung, start, through its faults (indices in
// cycle order), freezing the rung cycles in freeze on a SnapshotCache
// miss. A parked walk resumes at faults[pos] with its walker w.
type segment struct {
	start  *cpu.Core
	faults []int
	freeze []uint64
	frozen CheckpointSet // what the walker froze
	w      *cpu.Core
	pos    int
}

// cutSegments deals the faults, in order, and the rung cycles to freeze
// to the stretches between ladder's rungs: a fault goes to the latest rung
// not after its pre-injection cycle (a fault at cycle 0 to the reset
// state), a rung cycle to the latest rung not after it. Stretches given
// neither are left out.
func cutSegments(ladder *CheckpointSet, faults []fault.Fault, order []int, freeze []uint64) []segment {
	var segs []segment
	lo, flo := 0, 0
	for i, core := range ladder.cores {
		hi, fhi := len(order), len(freeze)
		if i+1 < len(ladder.cycles) {
			end := ladder.cycles[i+1]
			for hi = lo; hi < len(order) && max(faults[order[hi]].Cycle, 1)-1 < end; hi++ {
			}
			for fhi = flo; fhi < len(freeze) && freeze[fhi] < end; fhi++ {
			}
		}
		if hi > lo || fhi > flo {
			segs = append(segs, segment{start: core, faults: order[lo:hi], freeze: freeze[flo:fhi]})
		}
		lo, flo = hi, fhi
	}
	return segs
}

// task returns a worker's next piece of Forked work: a parked walk first,
// so at most one walk per worker is under way, else the next segment not
// started, else whichever of a parked walk or a handed-over fork comes
// first. ok is false once every segment is finished.
func (s *scheduler) task() (sg *segment, f fork, ok bool) {
	select {
	case sg, ok = <-s.parked:
		return sg, f, ok
	default:
	}
	if i := s.started.Add(1) - 1; i < int64(len(s.segs)) {
		return &s.segs[i], f, true
	}
	select {
	case sg, ok = <-s.parked:
		return sg, f, ok
	case f, ok = <-s.forks:
		return nil, f, ok
	}
}

// walk continues sg's walk: it clones sg's rung the first time, then steps
// the clone, the walker, to each fault's pre-injection cycle, where it
// classifies a fault dead at the flip and forks a clone for any other. A
// fork goes to a worker idle in task; when none is, the walk is parked for
// the first worker that is, and the fork classified here.
func (s *scheduler) walk(sg *segment, h *handOff) {
	cancelled := s.cancelled()
	if sg.w == nil && !cancelled {
		sg.w = s.m.clone(s.pool, sg.start)
	}
	for ; sg.pos < len(sg.faults) && !cancelled; cancelled = s.cancelled() {
		w, idx := sg.w, sg.faults[sg.pos]
		sg.pos++
		flt := s.faults[idx]
		s.freezeBefore(sg, w, flt.Cycle)
		for w.Cycle()+1 < flt.Cycle && w.Halted() == cpu.Running {
			w.Step()
		}
		// A flip into dead storage leaves the walker masked-equivalent to
		// its flipped clone: Masked here, at no clone and no cycle.
		if s.plan.Cut == nil && w.Dead(flt.Structure, int(flt.Entry)) {
			s.m.deadAtFlip.Add(1)
			s.record(idx, Masked)
			continue
		}
		f := fork{idx, s.m.clone(s.pool, w)}
		select {
		case s.forks <- f:
		default:
			s.parked <- sg // buffered for every segment: never blocks
			s.classify(f, h)
			return
		}
	}
	if w := sg.w; w != nil {
		if !cancelled {
			s.freezeBefore(sg, w, math.MaxUint64)
		}
		s.m.simCycles.Add(w.Cycle() - sg.start.Cycle())
		s.pool.Release(w)
		sg.w = nil
	}
	if s.open.Add(-1) == 0 {
		close(s.parked)
		close(s.forks)
	}
}

// cancelled reports whether the campaign's context is done.
func (s *scheduler) cancelled() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// freezeBefore steps walker w to each of sg's rung cycles before fc it has
// yet to pass and freezes a clone of it there; a rung at sg's own start is
// sg's start snapshot itself.
func (s *scheduler) freezeBefore(sg *segment, w *cpu.Core, fc uint64) {
	for len(sg.freeze) > 0 && sg.freeze[0] < fc {
		for w.Cycle() < sg.freeze[0] && w.Halted() == cpu.Running {
			w.Step()
		}
		rung := sg.start
		if w.Cycle() != rung.Cycle() {
			rung = s.m.clone(s.pool, w)
		}
		sg.frozen.cycles = append(sg.frozen.cycles, w.Cycle())
		sg.frozen.cores = append(sg.frozen.cores, rung)
		sg.freeze = sg.freeze[1:]
	}
}

// classify finishes fork f's faulty run and records its outcome.
func (s *scheduler) classify(f fork, h *handOff) {
	from := f.core.Cycle()
	o := s.r.inject(f.core, s.faults[f.idx], s.golden, s.rungs, s.plan.Cut, h)
	s.m.simCycles.Add(f.core.Cycle() - from)
	// A released shell is scrubbed by copy-over on reuse, so even a
	// panicked run's shell is safe to recycle.
	s.pool.Release(f.core)
	s.record(f.idx, o)
}

// record stores fault idx's outcome and reports it to plan.OnOutcome.
func (s *scheduler) record(idx int, o Outcome) {
	s.res.Outcomes[idx] = o
	if s.plan.OnOutcome != nil {
		s.plan.OnOutcome(idx, s.faults[idx], o)
	}
}
