package campaign

import (
	"context"
	"slices"
	"testing"

	"merlin/internal/conformance"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/interp"
	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// TestInterpStepsMatchCommitted: on every workload, the interpreter run
// from reset executes HALT after exactly the instructions the detailed
// core commits (neither counts HALT), with the same output and exception
// log, and the golden checkpoints sit every convergeStride instructions
// before it. The convergence exit predicts a converged run's length from
// this alignment.
func TestInterpStepsMatchCommitted(t *testing.T) {
	for _, name := range workloads.Names("") {
		r := NewRunner(target(t, name))
		g, err := r.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		ci := g.Result.Stats.CommittedInsts
		res := interp.Run(r.Prog, 2*ci)
		if res.Halt != interp.HaltOK || res.Steps != ci {
			t.Errorf("%s: interpreter %v after %d instructions, core committed %d", name, res.Halt, res.Steps, ci)
			continue
		}
		tr := r.goldenTrack(&g.Result)
		if tr == nil || tr.steps != ci || len(tr.points) != int(ci/convergeStride) {
			t.Errorf("%s: golden track %+v for %d committed instructions", name, tr, ci)
			continue
		}
		for j, p := range tr.points {
			if p.steps != uint64(j+1)*convergeStride {
				t.Errorf("%s: checkpoint %d at %d instructions", name, j, p.steps)
			}
		}
	}
}

// TestConvergedIsMasked is the convergence exit's twin: on the RF lists of
// sha and gcc, the SQ lists of djpeg and sha and the L1D list of sha, every
// fault of a comprehensive list that is not dead at the flip runs the
// hand-off as a Forked continuation does, retrying at each rung cycle
// after a fall-back. Each
// hand-off the exit decided is re-run on the interpreter from the same
// state to the end, and must halt as predicted (HaltOK after the golden
// run's remaining instructions, or StepLimit at the budget) and, halted,
// classify Masked, as the hand-off did.
func TestConvergedIsMasked(t *testing.T) {
	// An SQ or L1D flip that reaches memory mostly leaves a dead byte there
	// to program end, which no checkpoint matches: djpeg/SQ converges no
	// run, the other lists some.
	lists := []struct {
		wl        string
		s         lifetime.StructureID
		converges bool
	}{
		{"sha", lifetime.StructRF, true}, {"gcc", lifetime.StructRF, true}, {"djpeg", lifetime.StructSQ, false},
		{"sha", lifetime.StructSQ, true}, {"sha", lifetime.StructL1D, true},
	}
	if testing.Short() || raceEnabled {
		lists = lists[:1]
	}
	for _, tc := range lists {
		r := NewRunner(target(t, tc.wl))
		g, err := r.RunGolden()
		if err != nil {
			t.Fatal(err)
		}
		golden := &g.Result
		rungs := CheckpointSchedule(ForkSyncPoints, golden.Cycles)[1:]
		c := r.NewCore()
		faults := sampling.Generate(tc.s, c.StructureEntries(tc.s), c.StructureEntryBits(tc.s), golden.Cycles, 2000, 1)
		h := new(handOff)
		for _, i := range fault.SortedIndices(faults) {
			f := faults[i]
			for c.Cycle()+1 < f.Cycle && c.Halted() == cpu.Running {
				c.Step()
			}
			if c.Dead(f.Structure, int(f.Entry)) || c.Halted() != cpu.Running {
				continue
			}
			run := c.Clone()
			run.FlipBit(f.Structure, int(f.Entry), int(f.Bit))
			seq := run.RenameSeq()
			try := func() bool {
				before := h.converged
				o, ok := r.handOff(run, f, seq, golden, h)
				if h.converged > before {
					checkConverged(t, r, run, f, seq, golden, o)
				}
				return ok
			}
			if !try() {
				next, _ := slices.BinarySearch(rungs, run.Cycle()+1)
				for _, rung := range rungs[next:] {
					for run.Cycle() < rung && run.Halted() == cpu.Running {
						run.Step()
					}
					if run.Halted() != cpu.Running || try() {
						break
					}
				}
			}
		}
		if h.converged == 0 && tc.converges {
			t.Errorf("%s/%v: no hand-off converged", tc.wl, tc.s)
		}
		t.Logf("%s/%v: %d hand-offs, %d converged, %d fall-backs, %d instructions interpreted",
			tc.wl, tc.s, h.handOffs, h.converged, h.fellBack, h.interpInsts)
	}
}

// checkConverged re-runs the hand-off that just converged on run (which
// the hand-off left as it found it, after its wait) to the end on a fresh
// interpreter and checks the prediction.
func checkConverged(t *testing.T, r *Runner, run *cpu.Core, f fault.Fault, seq uint64, golden *cpu.RunResult, o Outcome) {
	t.Helper()
	pc, quiet := run.Quiescent(seq)
	if !quiet {
		t.Fatalf("fault %v: converged on a core that is not quiescent", f)
	}
	var m interp.Machine
	m.Reset(r.Prog, pc, run.CommittedRegs(), run)
	if addr, unsettled := run.UnsettledByte(f.Structure, int(f.Entry), int(f.Bit)); unsettled {
		m.Watch(addr)
	}
	budget := uint64(run.Cfg.CommitWidth) * (timeoutFactor*golden.Cycles - run.Cycle())
	m.Run(budget)
	res := m.Result()
	wantHalt, wantSteps, want := interp.HaltOK, golden.Stats.CommittedInsts-run.CommittedInsts(), Masked
	if wantSteps >= budget {
		wantHalt, wantSteps, want = interp.StepLimit, budget, Timeout
	}
	if res.Halt != wantHalt || res.Steps != wantSteps {
		t.Errorf("fault %v: converged run ends %v after %d instructions, predicted %v after %d", f, res.Halt, res.Steps, wantHalt, wantSteps)
	}
	if res.Halt == interp.HaltOK {
		if got := classify(conformance.CoreHalt(res.Halt), run.Output(), res.Output, run.ExcLog(), res.ExcLog, golden); got != Masked {
			t.Errorf("fault %v: converged run classifies %v when run to the end", f, got)
		}
	}
	if o != want {
		t.Errorf("fault %v: hand-off classified a converged run %v, want %v", f, o, want)
	}
}

// TestGoldenTrackBuiltConcurrently: two workers' first hand-offs on a
// fresh Runner of a program no Runner has built golden checkpoints for
// both ask for them; they are kept once and shared. The campaign
// classifies as a one-worker one does and does the same work. CI runs it
// under the race detector.
func TestGoldenTrackBuiltConcurrently(t *testing.T) {
	sha := workloads.MustGet("sha").Program()
	fresh := func() *Runner { // a program no golden checkpoints are kept for
		return NewRunner(Target{Cfg: cpu.DefaultConfig(), Prog: &isa.Program{Name: sha.Name, Text: sha.Text, Data: sha.Data, Entry: sha.Entry}})
	}
	ref := fresh()
	g, err := ref.RunGolden(lifetime.StructRF)
	if err != nil {
		t.Fatal(err)
	}
	c := ref.NewCore()
	ace := g.Tracer.Analysis(lifetime.StructRF)
	var faults []fault.Fault
	for _, f := range sampling.Generate(lifetime.StructRF, c.StructureEntries(lifetime.StructRF), c.StructureEntryBits(lifetime.StructRF), g.Result.Cycles, 400, 5) {
		if _, read := ace.Find(f.Entry, f.Byte(), f.Cycle); read {
			faults = append(faults, f)
		}
	}
	ref.Workers = 1
	want := mustRun(t)(ref.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
	for i := 0; i < 4; i++ {
		r := fresh()
		r.Workers = 2
		got := mustRun(t)(r.Run(context.Background(), faults, &g.Result, Plan{Strategy: Forked}))
		if !slices.Equal(got.Outcomes, want.Outcomes) {
			t.Errorf("two workers building the golden checkpoints classify differently from one")
		}
		if got.Converged != want.Converged || got.InterpInsts != want.InterpInsts || got.Converged == 0 {
			t.Errorf("two workers converged %d runs interpreting %d instructions, one worker %d and %d",
				got.Converged, got.InterpInsts, want.Converged, want.InterpInsts)
		}
		if r.track == nil || sharedTrack(r.Prog, 0) != r.track {
			t.Errorf("the Runner's golden checkpoints are not the ones kept for its program")
		}
	}
}
