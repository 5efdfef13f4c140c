// Package campaign runs fault-injection campaigns: a golden (fault-free)
// reference run, followed by one deterministic re-execution per fault with
// a single bit flipped at its cycle, classified against the golden run into
// the paper's six fault-effect categories (Table 2).
package campaign

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/isa"
	"merlin/internal/lifetime"
)

// Outcome is a fault-effect class (paper Table 2, plus Unknown for the
// truncated-run classification of Table 4 and Cancelled for faults a
// context-cancelled campaign never injected).
type Outcome uint8

// Fault-effect classes.
const (
	Masked    Outcome = iota // output and exceptions identical to golden
	SDC                      // output corrupted, no abnormal behaviour
	DUE                      // output intact but extra/missing exceptions
	Timeout                  // execution exceeded 3x the golden cycle count
	Crash                    // simulated process or simulator died
	Assert                   // simulator stopped on an internal assertion
	Unknown                  // truncated run: fault still live at the cut
	Cancelled                // campaign cancelled before this fault was injected
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{"Masked", "SDC", "DUE", "Timeout", "Crash", "Assert", "Unknown", "Cancelled"}

// String returns the class name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "?"
}

// ParseOutcome maps a class name ("Masked", "SDC", ..., in any case) back
// to its Outcome.
func ParseOutcome(name string) (Outcome, error) {
	for o, n := range outcomeNames {
		if strings.EqualFold(name, n) {
			return Outcome(o), nil
		}
	}
	return Masked, fmt.Errorf("unknown fault-effect class %q", name)
}

// MarshalText renders the class name, so JSON carrying an Outcome reads
// "SDC" instead of a bare int.
func (o Outcome) MarshalText() ([]byte, error) {
	if int(o) >= len(outcomeNames) {
		return nil, fmt.Errorf("cannot marshal unknown outcome %d", uint8(o))
	}
	return []byte(outcomeNames[o]), nil
}

// UnmarshalText parses a class name case-insensitively, round-tripping
// MarshalText.
func (o *Outcome) UnmarshalText(text []byte) error {
	v, err := ParseOutcome(string(text))
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// Dist is a distribution of outcomes.
type Dist [NumOutcomes]int

// Add counts one outcome.
func (d *Dist) Add(o Outcome) { d[o]++ }

// AddN counts n occurrences of an outcome (used when a group
// representative's outcome is extrapolated to the whole group).
func (d *Dist) AddN(o Outcome, n int) { d[o] += n }

// Total returns the number of classified faults.
func (d *Dist) Total() int {
	t := 0
	for _, n := range d {
		t += n
	}
	return t
}

// Share returns the fraction of outcome o.
func (d *Dist) Share(o Outcome) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(d[o]) / float64(t)
}

// AVF is the injection-based architectural vulnerability factor: the
// non-masked fraction (§4.4.3.3).
func (d *Dist) AVF() float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(t-d[Masked]) / float64(t)
}

// FIT converts the AVF into a failures-in-time rate given the structure's
// bit count and the raw per-bit FIT rate (the paper uses 0.01 FIT/bit).
func (d *Dist) FIT(bits int, rawFITPerBit float64) float64 {
	return d.AVF() * rawFITPerBit * float64(bits)
}

// String formats the distribution as percentages.
func (d Dist) String() string {
	t := d.Total()
	if t == 0 {
		return "(empty)"
	}
	s := ""
	for o := Outcome(0); o < NumOutcomes; o++ {
		if d[o] == 0 && o >= Unknown {
			continue // Unknown/Cancelled only render when present
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%.2f%%", o, 100*float64(d[o])/float64(t))
	}
	return s
}

// Target describes one (workload, core configuration) combination.
type Target struct {
	Cfg  cpu.Config
	Prog *isa.Program
}

// NewCore builds a fresh core for the target.
func (t *Target) NewCore() *cpu.Core { return cpu.New(t.Cfg, t.Prog) }

// Golden is the reference run: the architectural outcome plus (optionally)
// the lifetime tracer of the ACE-like analysis, finished: Tracer.Analysis(s)
// holds the vulnerable intervals of every tracked structure.
type Golden struct {
	Result cpu.RunResult
	Tracer *lifetime.Tracer
}

// timeoutFactor bounds each faulty run at timeoutFactor x golden cycles,
// past which the fault classifies as Timeout: the paper's 3.
const timeoutFactor = 3

// Runner executes injection campaigns for a target. The zero value is not
// usable (it has no clone pool and would run a zero-cycle golden run);
// start from NewRunner, which fills every default below.
type Runner struct {
	Target
	// Workers is Run's injection worker count. NewRunner leaves it 0, which
	// means runtime.GOMAXPROCS(0) (all host cores) at run time.
	Workers int
	// GoldenBudget bounds the fault-free reference run; a golden run
	// that exceeds it is an error, not a campaign result. NewRunner sets
	// DefaultGoldenBudget.
	GoldenBudget uint64
	// Snapshots, when non-nil, serves checkpoint ladders across Runners
	// (the daemon's in-memory snapshot cache): a Runner that did not
	// freeze its ladder during its own golden run asks it before replaying
	// one, and a Runner that did seeds it. Nil means a Runner without a
	// frozen ladder replays its own.
	Snapshots *SnapshotCache
	// FreezeLadder makes RunGolden freeze the Forked checkpoint ladder
	// while the golden run steps (see freezer), so the ladder costs no
	// pass of its own. NewRunner sets it; a Runner that only runs Replay
	// campaigns clears it and freezes nothing.
	FreezeLadder bool

	// pool recycles retired machine-clone shells across faults and
	// across the campaigns run on this Runner.
	pool *cpu.ClonePool

	// goldenRuns counts the fault-free reference runs this Runner has
	// simulated; batch pipelines assert exactly one per shared golden.
	goldenRuns atomic.Int64

	// forked is the Runner's one Forked ladder (see forkLadder), guarded
	// by ladderMu.
	ladderMu sync.Mutex
	forked   *runnerLadder
}

// GoldenRuns reports how many fault-free reference runs this Runner has
// simulated (RunGolden calls). Campaigns sharing one Runner over a single
// golden run — the batch pipeline — observe 1 here no matter how many
// structures they inject; an artifact-cache hit leaves it at 0.
func (r *Runner) GoldenRuns() int64 { return r.goldenRuns.Load() }

// DefaultGoldenBudget is NewRunner's bound on the fault-free reference
// run: generous enough for every registered workload at every Table 1
// configuration, small enough to catch a diverging program.
const DefaultGoldenBudget = 500_000_000

// NewRunner returns a Runner with its own clone pool, DefaultGoldenBudget,
// FreezeLadder set, and Workers 0 (= all host cores at run time).
func NewRunner(t Target) *Runner {
	return &Runner{Target: t, GoldenBudget: DefaultGoldenBudget, FreezeLadder: true, pool: cpu.NewClonePool(0)}
}

// runMetrics accumulates Run's injection-phase performance counters;
// workers update it concurrently.
type runMetrics struct {
	clones    atomic.Int64  // machine snapshots taken
	cloneNS   atomic.Int64  // wall time spent taking them
	simCycles atomic.Uint64 // machine cycles actually simulated

	handOffs, fellBack atomic.Int64  // see Work
	interpInsts        atomic.Uint64 // see Work
	deadAtFlip         atomic.Int64  // see Work
	overwritten        atomic.Int64  // see Work
}

// addHandOffs folds a retiring worker's hand-off counts in.
func (m *runMetrics) addHandOffs(h *handOff) {
	m.handOffs.Add(h.handOffs)
	m.fellBack.Add(h.fellBack)
	m.interpInsts.Add(h.interpInsts)
	m.overwritten.Add(h.overwritten)
}

// clone takes one metered snapshot of src through the pool.
func (m *runMetrics) clone(pool *cpu.ClonePool, src *cpu.Core) *cpu.Core {
	t0 := time.Now()
	c := pool.Clone(src)
	m.cloneNS.Add(int64(time.Since(t0)))
	m.clones.Add(1)
	return c
}

// fill copies the counters into a finished Result.
func (m *runMetrics) fill(res *Result) {
	res.Clones = m.clones.Load()
	res.CloneTime = time.Duration(m.cloneNS.Load())
	res.SimCycles = m.simCycles.Load()
	res.HandOffs, res.FellBack, res.InterpInsts = m.handOffs.Load(), m.fellBack.Load(), m.interpInsts.Load()
	res.DeadAtFlip, res.Overwritten = m.deadAtFlip.Load(), m.overwritten.Load()
}

// RunGolden performs the fault-free reference run, tracking lifetimes of
// the given structures (none for plain baseline campaigns). With
// FreezeLadder set, and no ladder yet, the run freezes the Forked
// checkpoint ladder as it goes: the Runner keeps it for every Forked
// campaign it runs, and seeds Snapshots with it.
func (r *Runner) RunGolden(track ...lifetime.StructureID) (*Golden, error) {
	r.goldenRuns.Add(1)
	c := r.NewCore()
	var tr *lifetime.Tracer
	if len(track) > 0 {
		tr = lifetime.NewTracer(track...)
		c.AttachTracer(tr)
	}
	var res cpu.RunResult
	var fr *freezer
	if r.FreezeLadder && !r.hasLadder() {
		fr = newFreezer(ForkSyncPoints, c, r.pool)
		res = fr.run(c, r.GoldenBudget)
	} else {
		res = c.Run(r.GoldenBudget)
	}
	if res.Halt != cpu.HaltOK {
		return nil, fmt.Errorf("campaign: golden run of %q ended with %v after %d cycles", r.Prog.Name, res.Halt, res.Cycles)
	}
	if fr != nil {
		r.adoptLadder(fr.set, res.Cycles)
	}
	if tr != nil {
		tr.Finish(false)
	}
	return &Golden{Result: res, Tracer: tr}, nil
}

// RunFault re-executes the program from reset with f injected and
// classifies the outcome against the golden run: a fresh core, no pool, no
// snapshots, no early exit — the reference every Run plan is
// differentially tested against.
func (r *Runner) RunFault(f fault.Fault, golden *cpu.RunResult) Outcome {
	return r.inject(r.NewCore(), f, golden, nil, nil, nil)
}

// inject is the one per-fault function behind Run and the RunFault*
// drivers: step c (at or before the fault's pre-injection cycle) up to it,
// flip the bit, and run to the stop rule — the cut when cut is non-nil,
// else the quiescence right after the flip or the first ladder snapshot
// where the run is masked-equivalent or the interpreter can finish it
// through h (none for a nil or reset-only ladder), else program end. Simulator panics are converted to Crash,
// internal assertion failures to Assert.
func (r *Runner) inject(c *cpu.Core, f fault.Fault, golden *cpu.RunResult, ladder *CheckpointSet, cut *TruncatedGolden, h *handOff) (out Outcome) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(*cpu.AssertError); ok {
				out = Assert
			} else {
				out = Crash // simulator crash
			}
		}
	}()
	for c.Cycle()+1 < f.Cycle && c.Halted() == cpu.Running {
		c.Step()
	}
	c.FlipBit(f.Structure, int(f.Entry), int(f.Bit))
	if cut != nil {
		return classifyTruncated(c, cut)
	}
	return r.classifyAgainst(c, f, c.RenameSeq(), golden, ladder, h)
}

// Classify maps a completed faulty run to its fault-effect class.
func Classify(res cpu.RunResult, golden *cpu.RunResult) Outcome {
	return classify(res.Halt, res.Output, nil, res.ExcLog, nil, golden)
}

// classify maps a run that ended with halt to its fault-effect class; its
// output is out ++ outTail and its exception log exc ++ excTail.
func classify(halt cpu.HaltReason, out, outTail []uint64, exc, excTail []uint32, golden *cpu.RunResult) Outcome {
	switch halt {
	case cpu.HaltOK:
		if !spliceEqual(out, outTail, golden.Output) {
			return SDC
		}
		if !spliceEqual(exc, excTail, golden.ExcLog) {
			return DUE
		}
		return Masked
	case cpu.CycleLimit:
		return Timeout
	default:
		return Crash
	}
}

// spliceEqual reports whether head ++ tail equals want.
func spliceEqual[T comparable](head, tail, want []T) bool {
	return len(head)+len(tail) == len(want) &&
		slices.Equal(head, want[:len(head)]) && slices.Equal(tail, want[len(head):])
}

// Work counts what executing an injection run cost, wherever it ran: one
// Runner.Run fills it, and a campaign merged from several runs (local and
// remote shards) reports their sum.
type Work struct {
	// Serial is the summed per-injection run time (single-machine
	// equivalent).
	Serial time.Duration
	// Clones counts the machine snapshots the campaign took and
	// CloneTime the wall-clock spent taking them — the per-fault setup
	// cost the copy-on-write state layers attack.
	Clones    int64
	CloneTime time.Duration
	// SimCycles is the total number of machine cycles actually simulated:
	// shared pre-fault work (a ladder replay, when the Runner neither
	// froze its ladder during the golden run nor was served one; the
	// forked sweep) plus every faulty continuation. Divided by Wall it
	// yields the campaign's effective simulation throughput.
	SimCycles uint64
	// HandOffs counts the faulty runs the architectural interpreter
	// finished instead of the detailed core, FellBack the hand-off attempts
	// that returned to the detailed core undecided (a watched byte read
	// again, or a run too long to rule Timeout in or out), and InterpInsts
	// the instructions interpreted over both. SimCycles counts detailed
	// cycles only.
	HandOffs    int64
	FellBack    int64
	InterpInsts uint64
	// DeadAtFlip counts the faults the Forked sweep classified Masked at
	// the fork because the flipped bit lay in dead storage (cpu.Core.Dead):
	// no clone, no cycle.
	DeadAtFlip int64
	// Overwritten counts the faults classified Masked while their run
	// waited for quiescence or walked to a rung, because the flipped RF or
	// SQ entry was overwritten or freed unread (cpu.Core.Watch).
	Overwritten int64
	// SnapshotHit reports that the checkpoint ladder was served by a
	// SnapshotCache instead of frozen or replayed (always false for
	// Replay, whose reset-only ladder never goes through the source).
	SnapshotHit bool
}

// Add sums another run's work into w (SnapshotHit = any run hit).
func (w *Work) Add(o Work) {
	w.Serial += o.Serial
	w.Clones += o.Clones
	w.CloneTime += o.CloneTime
	w.SimCycles += o.SimCycles
	w.HandOffs += o.HandOffs
	w.FellBack += o.FellBack
	w.InterpInsts += o.InterpInsts
	w.DeadAtFlip += o.DeadAtFlip
	w.Overwritten += o.Overwritten
	w.SnapshotHit = w.SnapshotHit || o.SnapshotHit
}

// Result aggregates a campaign.
type Result struct {
	Outcomes []Outcome
	Dist     Dist
	Wall     time.Duration // parallel wall-clock of the whole campaign
	// Injected counts the faults actually injected and classified; Dist
	// aggregates exactly those.
	Injected int
	// Cancelled counts faults the campaign never injected because its
	// context was cancelled first. Their Outcomes entries carry the
	// Cancelled sentinel and they are excluded from Dist, so
	// Dist.Total() + Cancelled == len(Outcomes) always holds.
	Cancelled int

	Work
}

// CyclesPerSec is the campaign's effective simulation throughput:
// simulated cycles per wall-clock second across all workers.
func (res *Result) CyclesPerSec() float64 {
	if res.Wall <= 0 {
		return 0
	}
	return float64(res.SimCycles) / res.Wall.Seconds()
}

// newResult sizes a Result for n faults with every outcome pre-marked
// Cancelled: Run only overwrites the entries it classifies, so a
// cancelled campaign's skipped faults are identifiable without extra
// bookkeeping.
func newResult(n int) *Result {
	res := &Result{Outcomes: make([]Outcome, n)}
	for i := range res.Outcomes {
		res.Outcomes[i] = Cancelled
	}
	return res
}

// NewResultFrom assembles a Result from outcomes classified elsewhere —
// the distributed path's merge point, where per-shard outcome streams
// (and checkpointed outcomes from a resumed campaign) recombine into the
// same aggregate a local Runner would have produced. Entries still
// carrying the Cancelled sentinel count as never-injected, exactly as in
// a locally cancelled campaign.
func NewResultFrom(outcomes []Outcome) *Result {
	res := &Result{Outcomes: outcomes}
	res.tally()
	return res
}

// tally aggregates the classified outcomes into Dist and counts the
// cancelled remainder.
func (res *Result) tally() {
	res.Dist = Dist{}
	res.Injected, res.Cancelled = 0, 0
	for _, o := range res.Outcomes {
		if o == Cancelled {
			res.Cancelled++
			continue
		}
		res.Dist.Add(o)
		res.Injected++
	}
}

// finalize tallies the outcomes and propagates ctx.Err() when the campaign
// was cut short (a fully classified campaign returns nil even if ctx was
// cancelled just after the last fault).
func (res *Result) finalize(ctx context.Context) error {
	res.tally()
	if res.Cancelled > 0 {
		return ctx.Err()
	}
	return nil
}
