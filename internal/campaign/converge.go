package campaign

import (
	"bytes"
	"math/bits"
	"slices"
	"sync"

	"merlin/internal/cpu"
	"merlin/internal/interp"
	"merlin/internal/isa"
	"merlin/internal/mem"
)

// convergeStride is the instruction spacing of the golden checkpoints a
// handed-off run is compared against. Finer checkpoints end converging runs
// sooner but cost a comparison more often: 64 saves only ~5% more
// interpreted instructions than 1024, and 4096 ~25% fewer.
const convergeStride = 1024

// goldenPoint is the fault-free run's architectural state after steps
// instructions: what the next one is, the registers, how long the output
// and the exception log are, and every page mapped, ascending. dead marks
// the registers the rest of the run never reads before it writes them:
// their values cannot matter.
type goldenPoint struct {
	steps          uint64
	pc             int64
	regs           [isa.NumArchRegs]uint64
	dead           uint16
	outLen, excLen int
	pages          []goldenPage
}

// goldenPage is one page of a goldenPoint. Its bytes are shared with the
// previous point's page at the same base unless the run changed them.
type goldenPage struct {
	base uint64
	data []byte
}

// goldenTrack is the fault-free run as the convergence exit reads it: its
// state every convergeStride instructions (points[j] after (j+1) x
// convergeStride), and the instruction count steps at which it executes
// HALT, with the output and exception log it ends with.
type goldenTrack struct {
	points []goldenPoint
	steps  uint64
	out    []uint64
	exc    []uint32
}

// goldenTrack returns the Runner's golden checkpoints, looked up or built
// on first use (sharedTrack). It is nil, and the exit stays off, if the
// interpreter's run of the program does not end exactly as golden did —
// HaltOK after golden's committed instruction count, with its output and
// exception log — since the exit rests on the two being aligned
// (TestInterpStepsMatchCommitted).
func (r *Runner) goldenTrack(golden *cpu.RunResult) *goldenTrack {
	r.trackOnce.Do(func() {
		if t := sharedTrack(r.Prog, golden.Stats.CommittedInsts); t != nil && t.steps == golden.Stats.CommittedInsts &&
			slices.Equal(t.out, golden.Output) && slices.Equal(t.exc, golden.ExcLog) {
			r.track = t
		}
	})
	return r.track
}

// goldenTracks keeps the golden checkpoints of the last few programs
// built: they depend on the program alone, and a daemon, a fleet worker or
// a benchmark builds a Runner per campaign or shard of the same few
// programs. An entry is immutable once stored.
var goldenTracks struct {
	sync.Mutex
	progs  []*isa.Program
	tracks []*goldenTrack
}

// goldenTracksKept bounds goldenTracks; omnetpp's track is ~2 MB.
const goldenTracksKept = 8

// sharedTrack returns prog's golden checkpoints from goldenTracks, or
// builds them, interpreting at most g instructions, and keeps them if the
// run halted.
func sharedTrack(prog *isa.Program, g uint64) *goldenTrack {
	gt := &goldenTracks
	gt.Lock()
	if i := slices.Index(gt.progs, prog); i >= 0 {
		t := gt.tracks[i]
		gt.Unlock()
		return t
	}
	gt.Unlock()
	t := buildGoldenTrack(prog, g)
	if t == nil {
		return nil
	}
	gt.Lock()
	defer gt.Unlock()
	if i := slices.Index(gt.progs, prog); i >= 0 {
		return gt.tracks[i] // built meanwhile by another Runner
	}
	if len(gt.progs) == goldenTracksKept {
		gt.progs, gt.tracks = gt.progs[1:], gt.tracks[1:]
	}
	gt.progs, gt.tracks = append(gt.progs, prog), append(gt.tracks, t)
	return t
}

// buildGoldenTrack interprets prog from reset one instruction at a time,
// which tells each point's dead registers (interp.Access). It is nil if
// the run does not execute HALT within g+1 instructions.
func buildGoldenTrack(prog *isa.Program, g uint64) *goldenTrack {
	m := interp.NewMachine(prog)
	t := new(goldenTrack)
	var prev []goldenPage
	access := make([][2]uint16, len(prog.Text)) // each instruction's reads and writes
	for i := range prog.Text {
		access[i][0], access[i][1] = interp.Access(&prog.Text[i])
	}
	// undecided[r] is the first point whose dead bit for r is not known
	// yet: r has not been accessed since that point was taken.
	var undecided [isa.NumArchRegs]int
	decide := func(regs uint16, dead bool) {
		for ; regs != 0; regs &= regs - 1 {
			r := bits.TrailingZeros16(regs)
			for j := undecided[r]; dead && j < len(t.points); j++ {
				t.points[j].dead |= 1 << r
			}
			undecided[r] = len(t.points)
		}
	}
	for n := uint64(0); !m.Done() && n <= g && uint64(m.PC()) < uint64(len(prog.Text)); n++ {
		if n > 0 && n%convergeStride == 0 {
			bases := slices.Clone(m.Touched())
			slices.Sort(bases)
			pages := make([]goldenPage, len(bases))
			for i, base := range bases {
				data := m.PageData(base)
				if j := slices.IndexFunc(prev, func(p goldenPage) bool { return p.base == base }); j >= 0 && bytes.Equal(prev[j].data, data) {
					pages[i] = prev[j]
				} else {
					pages[i] = goldenPage{base, slices.Clone(data)}
				}
			}
			t.points = append(t.points, goldenPoint{
				steps: n, pc: m.PC(), regs: m.Regs(),
				outLen: len(m.Output()), excLen: len(m.ExcLog()),
				pages: pages,
			})
			prev = pages
		}
		a := access[m.PC()]
		decide(a[0], false)
		decide(a[1]&^a[0], true)
		m.Step()
	}
	decide(1<<isa.NumArchRegs-1, true) // never accessed again
	res := m.Result()
	if res.Halt != interp.HaltOK {
		return nil
	}
	t.steps, t.out, t.exc = res.Steps, res.Output, res.ExcLog
	return t
}

// interpret runs h.m, which Reset started at faulty core c's committed
// state, for at most budget instructions and returns the result. Where it
// passes a golden checkpoint with no byte watched (a watched byte may
// still be read), it compares its state with the golden run's there. Equal,
// the rest of the run is the golden run's, so it stops and returns the
// result that rest gives, converged: with K the instructions c committed and
// G the golden run's, the run executes HALT after S = G - K instructions.
// HALT itself is not counted and runs only while fewer than budget have, so
// the result is HaltOK after S if S < budget and StepLimit after budget
// otherwise; the output and exception log are the golden run's. Its Output
// and ExcLog are left nil: the caller knows them.
func (r *Runner) interpret(c *cpu.Core, golden *cpu.RunResult, h *handOff, budget uint64) (res interp.Result, converged bool) {
	t := r.goldenTrack(golden)
	stored, armed := c.StoredPages()
	if t != nil && armed {
		var diffAt uint64 // a byte that differed at the last comparison, 0 before one did
		k := c.CommittedInsts()
		for j := int(k / convergeStride); j < len(t.points) && t.points[j].steps-k <= budget; j++ {
			p := &t.points[j]
			if h.m.Run(p.steps - k); h.m.Done() {
				break
			}
			if !h.m.Watching() && p.sameAs(c, &h.m, stored, golden, &diffAt) {
				if s := t.steps - k; s < budget {
					return interp.Result{Halt: interp.HaltOK, Steps: s}, true
				}
				return interp.Result{Halt: interp.StepLimit, Steps: budget}, true
			}
		}
	}
	h.m.Run(budget)
	return h.m.Result(), false
}

// zeroPage is a page no run has written: any page a goldenPoint lacks.
var zeroPage [mem.PageSize]byte

// sameAs reports whether interpreter m, running on from faulty core c, is
// in p's state: same next instruction, same registers except dead ones,
// output and exception log (the core's then the interpreter's) equal to
// the golden run's prefixes, and the same bytes on every page that can
// differ. A dead register is written before it is read on the golden
// run's rest, which a run equal in everything else follows step by step,
// so its value never matters. The pages that can differ are
// the pages either run has mapped and the pages c changed after the flip
// (stored, cpu.Core.StoredPages). Any other page is untouched by the golden
// run so far, so zero, and untouched by the faulty run since the flip and
// by the golden run before it, so zero in c's image too. Comparing maps a
// page m has not touched from c, as a load would. A run that keeps one
// stale byte never converges, so the byte at *diffAt, which differed at
// the previous comparison, is checked before any page, and the first byte
// found different is kept there.
func (p *goldenPoint) sameAs(c *cpu.Core, m *interp.Machine, stored cpu.PageSet, golden *cpu.RunResult, diffAt *uint64) bool {
	if m.PC() != p.pc {
		return false
	}
	for r, v := range m.Regs() {
		if v != p.regs[r] && p.dead&(1<<r) == 0 {
			return false
		}
	}
	out, exc := c.Output(), c.ExcLog()
	if len(out)+len(m.Output()) != p.outLen || len(exc)+len(m.ExcLog()) != p.excLen ||
		!spliceEqual(out, m.Output(), golden.Output[:p.outLen]) || !spliceEqual(exc, m.ExcLog(), golden.ExcLog[:p.excLen]) {
		return false
	}
	const off = mem.PageSize - 1
	if a := *diffAt; a != 0 && m.Page(a &^ off)[a&off] != p.page(a &^ off)[a&off] {
		return false
	}
	for _, gp := range p.pages {
		stored.Add(gp.base)
	}
	for _, base := range m.Touched() {
		stored.Add(base)
	}
	return stored.All(func(base uint64) bool {
		got, want := m.Page(base), p.page(base)
		if bytes.Equal(got, want) {
			return true
		}
		i := 0
		for got[i] == want[i] {
			i++
		}
		*diffAt = base + uint64(i)
		return false
	})
}

// page returns the bytes of the page at base at p: zeros if the run had
// not mapped it.
func (p *goldenPoint) page(base uint64) []byte {
	if i := slices.IndexFunc(p.pages, func(gp goldenPage) bool { return gp.base == base }); i >= 0 {
		return p.pages[i].data
	}
	return zeroPage[:]
}
