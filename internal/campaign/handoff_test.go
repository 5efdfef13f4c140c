package campaign

import (
	"context"
	"fmt"
	"testing"

	"merlin/internal/asm"
	"merlin/internal/conformance/gen"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// TestHandOffFaultFree is the extraction oracle: with no fault in the way,
// handing the golden run off at any rung must reproduce the golden run.
// Every workload under both TestTimingPins configurations, at every rung
// of a ForkSyncPoints ladder: the interpreter, started from the core's
// next PC to retire, committed registers and composed memory image, ends
// with the golden halt, its output and exception log spliced after the
// core's equal the golden ones, and it retires exactly the instructions
// the core had not. The core must come out untouched.
func TestHandOffFaultFree(t *testing.T) {
	for _, name := range workloads.Names("") {
		for _, tc := range timingConfigs {
			r := NewRunner(Target{Cfg: tc.cfg, Prog: workloads.MustGet(name).Program()})
			g, err := r.RunGolden()
			if err != nil {
				t.Fatal(err)
			}
			ladder := r.BuildCheckpoints(ForkSyncPoints, g.Result.Cycles)
			h := new(handOff)
			for i, rung := range ladder.cores[1:] {
				c := rung.Clone()
				o, ok := r.handOff(c, fault.Fault{}, 0, &g.Result, h)
				if !ok || o != Masked {
					t.Errorf("%s/%s rung %d (cycle %d): hand-off ok=%v outcome %v, want Masked", name, tc.name, i+1, rung.Cycle(), ok, o)
					continue
				}
				if got := c.Result().Stats.CommittedInsts + h.m.Steps(); got != g.Result.Stats.CommittedInsts {
					t.Errorf("%s/%s rung %d: core + interpreter retired %d instructions, golden run %d", name, tc.name, i+1, got, g.Result.Stats.CommittedInsts)
				}
				// The wait for quiescence stepped c; the extraction after it
				// must not have changed it.
				ref := rung.Clone()
				for ref.Cycle() < c.Cycle() {
					ref.Step()
				}
				if !cpu.StateEqual(c, ref) {
					t.Errorf("%s/%s rung %d: hand-off changed the core", name, tc.name, i+1)
				}
			}
			if h.fellBack != 0 || h.handOffs != int64(len(ladder.cores)-1) {
				t.Errorf("%s/%s: %d hand-offs, %d fall-backs over %d rungs", name, tc.name, h.handOffs, h.fellBack, len(ladder.cores)-1)
			}
		}
	}
}

// trapKernel assembles a hand-off trap scenario: its Runner and golden run.
func trapKernel(t *testing.T, name, src string) (*Runner, *cpu.RunResult) {
	t.Helper()
	r := NewRunner(Target{Cfg: cpu.DefaultConfig(), Prog: asm.MustAssemble(name, src)})
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	return r, &g.Result
}

// rungAt is a ladder whose only rung past reset is the fault-free run at
// cycle.
func rungAt(r *Runner, cycle uint64) *CheckpointSet {
	c := r.NewCore()
	set := &CheckpointSet{cycles: []uint64{0}, cores: []*cpu.Core{c.Clone()}}
	for c.Cycle() < cycle {
		c.Step()
	}
	set.cycles, set.cores = append(set.cycles, cycle), append(set.cores, c.Clone())
	return set
}

// delayLoop spins r2 down from n: a stretch of the run that touches neither
// memory nor any register a scenario cares about.
func delayLoop(label string, n int) string {
	return fmt.Sprintf("\tli r2, %d\n%s:\n\taddi r2, r2, -1\n\tbne r2, r12, %s\n", n, label, label)
}

// TestHandOffTraps pins the hand-off's extraction traps, one scenario each,
// built so that the wrong extraction yields a different class than the
// detailed run's. Each injects one fault before a single rung and checks
// the class against RunFault and what the hand-off did.
func TestHandOffTraps(t *testing.T) {
	// Conflicting lines at an 8 KB stride share an L1D set with 0x40000
	// (set 0, which nothing else touches, so its first fill is way 0 =
	// entry 0).
	const l1dPrologue = "\tli r12, 0\n\tli r11, 0x40000\n\tli r7, 77\n\tld r1, [r11+0]\n"
	for _, tc := range []struct {
		name     string
		src      string
		f        fault.Fault
		rung     uint64
		want     Outcome
		handOffs int64
		fellBack int64
	}{{
		// Registers through the committed map: r1's writer retired long
		// before the flip, so the archRegs shadow still holds the clean
		// value and would read Masked. li r1 is the first rename: phys 16.
		name: "RF flip after the writer retired",
		src:  "\tli r1, 12345\n\tli r12, 0\n" + delayLoop("spin", 600) + "\tout r1\n\thalt\n",
		f:    fault.Fault{Structure: lifetime.StructRF, Entry: 16, Bit: 3, Cycle: 250},
		rung: 300, want: SDC, handOffs: 1,
	}, {
		// Memory image composed: sixteen stores to cold lines queue behind
		// one drain port for ~1,500 cycles, so the last (SQ slot 15) is
		// committed and undrained at the flip and at the rung; its flipped
		// data exists nowhere but the store queue. An image without it
		// reads 0 there and dies dividing by it.
		name: "SQ flip in a committed, undrained store",
		src: func() string {
			src := "\tli r12, 0\n\tli r11, 0x40000\n\tli r7, 77\n"
			for i := 0; i < 16; i++ {
				src += fmt.Sprintf("\tsd [r11+%d], r7\n", 64*i)
			}
			return src + delayLoop("spin", 2500) + "\tld r1, [r11+960]\n\tdiv r3, r7, r1\n\tout r3\n\thalt\n"
		}(),
		f:    fault.Fault{Structure: lifetime.StructSQ, Entry: 15, Bit: 1, Cycle: 600},
		rung: 700, want: SDC, handOffs: 1,
	}, {
		// A flip in a clean line is not architectural: four conflicting
		// fills evict the line, the re-read refills it clean, the detailed
		// run is Masked. The interpreter's image holds the flipped byte, so
		// the re-read must trip the watch and fall back.
		name: "L1D flip in a clean line, evicted, then re-read",
		src: l1dPrologue + delayLoop("spin", 600) +
			"\tld r3, [r11+0x2000]\n\tld r4, [r11+0x4000]\n\tld r5, [r11+0x6000]\n\tld r6, [r11+0x8000]\n" +
			delayLoop("settle", 300) + "\tld r1, [r11+0]\n\tout r1\n\thalt\n",
		f:    fault.Fault{Structure: lifetime.StructL1D, Entry: 0, Bit: 2, Cycle: 300},
		rung: 350, want: Masked, fellBack: 1,
	}, {
		// ... and a store covering the flipped byte before any load ends
		// the watch: the run is exact either way and hands off.
		name: "L1D flip in a clean line, overwritten first",
		src:  l1dPrologue + delayLoop("spin", 600) + "\tsd [r11+0], r7\n\tld r1, [r11+0]\n\tout r1\n\thalt\n",
		f:    fault.Fault{Structure: lifetime.StructL1D, Entry: 0, Bit: 2, Cycle: 300},
		rung: 350, want: Masked, handOffs: 1,
	}} {
		r, golden := trapKernel(t, tc.name, tc.src)
		if got := r.RunFault(tc.f, golden); got != tc.want {
			t.Errorf("%s: RunFault %v, scenario built for %v (golden run %d cycles)", tc.name, got, tc.want, golden.Cycles)
			continue
		}
		set, h := rungAt(r, tc.rung), new(handOff)
		got := r.inject(set.before(tc.f.Cycle).Clone(), tc.f, golden, set, nil, h)
		if got != tc.want || h.handOffs != tc.handOffs || h.fellBack != tc.fellBack {
			t.Errorf("%s: %v with %d hand-offs and %d fall-backs, want %v with %d and %d",
				tc.name, got, h.handOffs, h.fellBack, tc.want, tc.handOffs, tc.fellBack)
		}
	}
}

// TestHandOffStraddlesSTADD: a misaligned STADD logs one exception when its
// load µop retires and one when its STA µop does. A hand-off between the
// two must wait — restarting the instruction on the interpreter would log
// the pair again. Walk a fault-free run of misaligned STADDs; every cycle
// the exception log has odd length is such a straddle.
func TestHandOffStraddlesSTADD(t *testing.T) {
	src := "\tli r12, 0\n\tli r11, 0x40003\n\tli r7, 5\n"
	for i := 0; i < 12; i++ {
		src += fmt.Sprintf("\tstadd [r11+%d], r7\n\tmul r7, r7, r7\n", 72*i)
	}
	r, golden := trapKernel(t, "stadd-straddle", src+"\tld r1, [r11+0]\n\tout r1\n\thalt\n")
	if len(golden.ExcLog) != 2*12+1 {
		t.Fatalf("golden run logged %d exceptions, want a pair per STADD and the final load's", len(golden.ExcLog))
	}
	h, straddles := new(handOff), 0
	for c := r.NewCore(); c.Halted() == cpu.Running; c.Step() {
		if len(c.ExcLog())%2 == 0 || len(c.ExcLog()) > 2*12 {
			continue
		}
		straddles++
		if _, ok := c.Quiescent(0); ok {
			t.Errorf("cycle %d: quiescent between the two exceptions of one STADD", c.Cycle())
		}
		if o, ok := r.handOff(c.Clone(), fault.Fault{}, 0, golden, h); !ok || o != Masked {
			t.Errorf("cycle %d: hand-off ok=%v outcome %v, want Masked", c.Cycle(), ok, o)
		}
	}
	if straddles == 0 {
		t.Error("no cycle straddles a STADD: the scenario tests nothing")
	}
}

// anchorCampaigns are the eight (workload, structure) pairs ROADMAP's
// exit-reason table was measured on.
var anchorCampaigns = []struct {
	wl string
	s  lifetime.StructureID
}{
	{"djpeg", lifetime.StructL1D}, {"hmmer", lifetime.StructL1D}, {"fft", lifetime.StructL1D},
	{"sha", lifetime.StructRF}, {"gcc", lifetime.StructRF}, {"mcf", lifetime.StructRF},
	{"qsort", lifetime.StructSQ}, {"sjeng", lifetime.StructSQ},
}

// TestHandOffMatchesRunFault is the hand-off's differential: on the anchor's
// eight campaigns, sampled faults — mostly ones the ACE-like analysis says
// are read, the kind a MeRLiN campaign injects, plus some it says are dead —
// classify under the Forked plan, and started from the nearest of eight
// rungs by RunFaultFrom, exactly as the detailed from-reset RunFault does,
// and the plan does hand runs off.
func TestHandOffMatchesRunFault(t *testing.T) {
	live, dead := 120, 40
	if testing.Short() || raceEnabled { // CI runs the full size in its no-race step
		live, dead = 24, 8
	}
	for _, tc := range anchorCampaigns {
		r := NewRunner(target(t, tc.wl))
		g, err := r.RunGolden(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		c := r.NewCore()
		entries, bits := c.StructureEntries(tc.s), c.StructureEntryBits(tc.s)
		ace := lifetime.Build(g.Tracer.Log(tc.s), tc.s, entries, bits/8, g.Result.Cycles)
		var faults []fault.Fault
		nLive, nDead := 0, 0
		for _, f := range sampling.Generate(tc.s, entries, bits, g.Result.Cycles, 40*(live+dead), 7) {
			if _, read := ace.Find(f.Entry, int(f.Bit)/8, f.Cycle); read && nLive < live {
				nLive++
				faults = append(faults, f)
			} else if !read && nDead < dead {
				nDead++
				faults = append(faults, f)
			}
		}
		set := r.BuildCheckpoints(8, g.Result.Cycles)
		res := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
		for i, f := range faults {
			want := r.RunFault(f, &g.Result)
			if res.Outcomes[i] != want {
				t.Errorf("%s/%v fault %v: Forked %v, RunFault %v", tc.wl, tc.s, f, res.Outcomes[i], want)
			}
			if from := r.RunFaultFrom(set, f, &g.Result); from != want {
				t.Errorf("%s/%v fault %v: RunFaultFrom %v, RunFault %v", tc.wl, tc.s, f, from, want)
			}
		}
		if res.HandOffs == 0 {
			t.Errorf("%s/%v: no run was handed off (%d live faults)", tc.wl, tc.s, nLive)
		}
		t.Logf("%s/%v: %d faults (%d read), %d handed off, %d attempts fell back, %d instructions interpreted, %d detailed cycles",
			tc.wl, tc.s, len(faults), nLive, res.HandOffs, res.FellBack, res.InterpInsts, res.SimCycles)
	}
}

// FuzzHandOff: on a generated stress kernel of any class, one fault anywhere
// in any structure classifies through the ladder and the hand-off exactly
// as the detailed from-reset run does. The seed corpus under testdata/fuzz
// holds one input per way a run ends: handed off to each class, sure
// Timeout, and the band that falls back.
func FuzzHandOff(f *testing.F) {
	f.Fuzz(func(t *testing.T, class uint8, seed uint64, structure uint8, entry, bit, cycle uint16) {
		classes := gen.Classes()
		r := NewRunner(Target{Cfg: cpu.DefaultConfig(), Prog: gen.Kernel(classes[int(class)%len(classes)], seed%64)})
		g, err := r.RunGolden()
		if err != nil {
			t.Skip(err)
		}
		s := lifetime.StructureID(structure % uint8(lifetime.NumStructures))
		c := r.NewCore()
		flt := fault.Fault{
			Structure: s,
			Entry:     int32(int(entry) % c.StructureEntries(s)),
			Bit:       int32(int(bit) % c.StructureEntryBits(s)),
			Cycle:     1 + uint64(cycle)%g.Result.Cycles,
		}
		set := r.BuildCheckpoints(6, g.Result.Cycles)
		if got, want := r.RunFaultFrom(set, flt, &g.Result), r.RunFault(flt, &g.Result); got != want {
			t.Errorf("%s fault %v: hand-off %v, RunFault %v", r.Prog.Name, flt, got, want)
		}
	})
}
