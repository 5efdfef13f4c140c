package campaign

import (
	"fmt"
	"slices"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
)

// TruncatedGolden is the fault-free reference for a run cut at a fixed
// cycle, mirroring the paper's Simpoint-interval experiments (§4.4.3.4):
// since the run does not finish, Masked/Unknown are decided by comparing
// the complete reachable state at the cut.
type TruncatedGolden struct {
	Cut    uint64
	Result cpu.RunResult
	Hash   uint64
	Tracer *lifetime.Tracer
}

// RunGoldenTruncated executes the fault-free run up to cut cycles and
// captures its architectural state digest.
func (r *Runner) RunGoldenTruncated(cut uint64, track ...lifetime.StructureID) (*TruncatedGolden, error) {
	c := r.NewCore()
	var tr *lifetime.Tracer
	if len(track) > 0 {
		tr = lifetime.NewTracer(track...)
		c.AttachTracer(tr)
	}
	res := c.Run(cut)
	if res.Halt != cpu.CycleLimit {
		return nil, fmt.Errorf("campaign: truncated golden of %q ended early: %v after %d cycles", r.Prog.Name, res.Halt, res.Cycles)
	}
	c.FlushDataCaches()
	if tr != nil {
		tr.Finish(true) // after the flush: its writebacks read the lines they evict
	}
	return &TruncatedGolden{Cut: cut, Result: res, Hash: c.StateHash(), Tracer: tr}, nil
}

// RunFaultTruncated injects f into a fresh core, runs to the cut, and
// classifies with the paper's truncated scheme (see classifyTruncated): the
// per-fault reference of Run with Plan.Cut.
func (r *Runner) RunFaultTruncated(f fault.Fault, tg *TruncatedGolden) Outcome {
	return r.inject(r.NewCore(), f, &tg.Result, nil, tg, nil)
}

// classifyTruncated runs faulty core c (fault already applied) to the cut
// and classifies it Masked / DUE / Crash / Unknown. SDCs and Timeouts
// cannot be identified because the program never finishes; any fault whose
// effects are still present in the machine state at the cut is Unknown.
func classifyTruncated(c *cpu.Core, tg *TruncatedGolden) Outcome {
	res := c.Run(tg.Cut)
	switch res.Halt {
	case cpu.CycleLimit:
		// Still running at the cut, as the golden run is.
	case cpu.HaltOK:
		// The fault steered execution to completion before the interval
		// ended; its effect on the full program is undecidable here.
		return Unknown
	default:
		return Crash
	}
	outputSame := slices.Equal(res.Output, tg.Result.Output)
	excSame := slices.Equal(res.ExcLog, tg.Result.ExcLog)
	if !outputSame {
		return Unknown // corrupted output already visible; still "not finished"
	}
	c.FlushDataCaches()
	if c.StateHash() == tg.Hash {
		if !excSame {
			return DUE
		}
		return Masked
	}
	if !excSame {
		return DUE
	}
	return Unknown
}
