// Package guestflow is a static dataflow engine over decoded guest
// programs (internal/isa): CFG recovery and backward may-liveness per
// architectural register.
//
// It exists as an independent, purely static second opinion on the
// dynamic ACE-like lifetime analysis (internal/lifetime) that every
// AVF/FIT number rests on. Two consumers key off it:
//
//   - CrossCheck: a differential oracle asserting every dynamically
//     observed live interval is explainable under the static may-live
//     bounds. A violation is a tracer bug and fails loudly.
//   - PruneRF: a pre-pruner classifying register-file fault sites whose
//     governing write's architectural value is must-dead (overwritten
//     before any read on all static paths) as masked before any faulty
//     simulation runs.
//
// The analysis is conservative by construction: direct branches are
// resolved exactly, while jalr/indirect jumps are treated as
// may-reach-all-labeled-targets (plus every return site); when a program
// has an indirect jump but no labeled text targets, every instruction is
// a successor. Over-approximating successors over-approximates may-live
// sets, which keeps both consumers sound. All results are deterministic:
// label-derived sets are sorted, and the fixpoint iterates in fixed
// instruction order.
package guestflow

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"merlin/internal/isa"
)

// RegSet is a set of architectural registers (bit r = register r).
type RegSet uint16

// Has reports whether register r is in the set.
func (s RegSet) Has(r int8) bool { return r >= 0 && s&(1<<uint(r)) != 0 }

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount16(uint16(s)) }

// String renders the set as {r1,r5,sp}.
func (s RegSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for r := 0; r < isa.NumArchRegs; r++ {
		if s&(1<<uint(r)) == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		switch r {
		case isa.RegSP:
			b.WriteString("sp")
		case isa.RegLR:
			b.WriteString("lr")
		default:
			fmt.Fprintf(&b, "r%d", r)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// allRegs is the full architectural register set.
const allRegs RegSet = (1 << isa.NumArchRegs) - 1

// Analysis holds the static dataflow results for one program. Build one
// with Analyze; all methods are read-only and safe for concurrent use.
type Analysis struct {
	Prog *isa.Program

	succs     [][]int32
	reachable []bool

	use []RegSet // arch registers read by any µop of the instruction
	def []RegSet // arch registers written by any µop of the instruction

	mayIn  []RegSet
	mayOut []RegSet

	indirect []int32 // conservative successor set shared by every jalr
}

// Analyze runs the full static analysis over p. It never fails: an empty
// program yields an empty analysis.
func Analyze(p *isa.Program) *Analysis {
	n := len(p.Text)
	g := &Analysis{
		Prog:      p,
		succs:     make([][]int32, n),
		reachable: make([]bool, n),
		use:       make([]RegSet, n),
		def:       make([]RegSet, n),
		mayIn:     make([]RegSet, n),
		mayOut:    make([]RegSet, n),
	}
	if n == 0 {
		return g
	}
	g.buildUseDef()
	g.buildCFG()
	g.buildLiveness()
	return g
}

// buildUseDef derives per-instruction use/def sets from the cracked µop
// stream, not the macro fields: LDADD's ALU µop reads Rs2 and an
// intra-instruction temp, a store's STD µop reads the macro Rs2 through
// its own Rs1 slot, and temps (TempDst/TempSrc) are invisible at the
// architectural level.
func (g *Analysis) buildUseDef() {
	for i, in := range g.Prog.Text {
		var use, def RegSet
		for _, u := range isa.Crack(in) {
			if u.Rs1 >= 0 {
				use |= 1 << uint(u.Rs1)
			}
			if u.Rs2 >= 0 {
				use |= 1 << uint(u.Rs2)
			}
			if u.Rd >= 0 {
				def |= 1 << uint(u.Rd)
			}
		}
		g.use[i] = use
		g.def[i] = def
	}
}

// buildCFG resolves every instruction's successor set. Branch targets are
// macro-instruction indexes (isa package contract); out-of-range targets
// are dropped rather than faulted — fetch of such a target halts the
// machine, so the static edge does not exist.
func (g *Analysis) buildCFG() {
	n := len(g.Prog.Text)
	g.indirect = indirectTargets(g.Prog)
	for i, in := range g.Prog.Text {
		var ss []int32
		add := func(t int64) {
			if t >= 0 && t < int64(n) {
				ss = append(ss, int32(t))
			}
		}
		switch {
		case in.Op == isa.HALT:
			// no successors
		case in.Op == isa.JAL:
			add(in.Imm)
		case in.Op == isa.JALR:
			ss = append(ss, g.indirect...)
		case isa.IsCondBranch(in.Op):
			add(int64(i) + 1)
			add(in.Imm)
		default:
			add(int64(i) + 1)
		}
		g.succs[i] = ss
	}
	// Reachability from the entry point, over the conservative edges.
	work := []int32{int32(g.Prog.Entry)}
	if g.Prog.Entry < 0 || g.Prog.Entry >= n {
		work = nil
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if g.reachable[i] {
			continue
		}
		g.reachable[i] = true
		work = append(work, g.succs[i]...)
	}
}

// indirectTargets computes the conservative jalr successor set: every
// symbol naming a text location (an address-taken label is the only way a
// program can materialize a jump target) plus every return site (the
// instruction after a link-writing call). If the program has a jalr but
// the set comes up empty, every instruction is a may-target.
func indirectTargets(p *isa.Program) []int32 {
	n := len(p.Text)
	hasJALR := false
	for _, in := range p.Text {
		if in.Op == isa.JALR {
			hasJALR = true
			break
		}
	}
	if !hasJALR {
		return nil
	}
	seen := make(map[int32]bool)
	for _, v := range p.Symbols {
		if v >= 0 && v < int64(n) {
			seen[int32(v)] = true
		}
	}
	for i, in := range p.Text {
		if (in.Op == isa.JAL || in.Op == isa.JALR) && in.Rd >= 0 && i+1 < n {
			seen[int32(i+1)] = true
		}
	}
	if len(seen) == 0 {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	ts := make([]int32, 0, len(seen))
	for t := range seen {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	return ts
}

// buildLiveness runs the backward may-liveness fixpoint: a register is
// may-live-out of i if some path from a successor reads it before writing
// it. Unreachable instructions still get locally consistent sets, but only
// reachable ones matter to the consumers.
func (g *Analysis) buildLiveness() {
	n := len(g.Prog.Text)
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			var out RegSet
			for _, s := range g.succs[i] {
				out |= g.mayIn[s]
			}
			in := g.use[i] | (out &^ g.def[i])
			if out != g.mayOut[i] || in != g.mayIn[i] {
				changed = true
			}
			g.mayOut[i], g.mayIn[i] = out, in
		}
	}
}

// Succs returns i's CFG successors. The slice is shared; do not mutate.
func (g *Analysis) Succs(i int) []int32 { return g.succs[i] }

// Reachable reports whether instruction i is reachable from the entry
// point over the (conservative) CFG edges.
func (g *Analysis) Reachable(i int) bool {
	return i >= 0 && i < len(g.reachable) && g.reachable[i]
}

// MayLiveIn returns the registers that may be read before being written
// on some path starting at instruction i.
func (g *Analysis) MayLiveIn(i int) RegSet { return g.mayIn[i] }

// MayLiveOut returns the registers that may be read before being written
// on some path leaving instruction i.
func (g *Analysis) MayLiveOut(i int) RegSet { return g.mayOut[i] }

// MustDeadOut returns the registers provably dead leaving instruction i:
// on every static path the value is overwritten before any read. Faults in
// such a value are masked by construction.
func (g *Analysis) MustDeadOut(i int) RegSet { return ^g.mayOut[i] & allRegs }

// Stats summarises the CFG and dataflow results for reporting.
type Stats struct {
	Instructions int     // text size
	Reachable    int     // instructions reachable from entry
	Branches     int     // conditional branches
	DirectJumps  int     // jal
	IndirectOps  int     // jalr
	IndirectFan  int     // size of the conservative jalr target set
	BackEdges    int     // CFG edges i -> j with j <= i (loops)
	Defs         int     // static definition sites (incl. entry pseudo-defs)
	AvgMayLive   float64 // mean may-live-in registers over reachable instructions
	AvgMustDead  float64 // mean must-dead-out registers over reachable instructions
}

// ComputeStats derives summary statistics from the analysis.
func (g *Analysis) ComputeStats() Stats {
	st := Stats{Instructions: len(g.Prog.Text), Defs: isa.NumArchRegs, IndirectFan: len(g.indirect)}
	var live, dead, reach int
	for i, in := range g.Prog.Text {
		switch {
		case isa.IsCondBranch(in.Op):
			st.Branches++
		case in.Op == isa.JAL:
			st.DirectJumps++
		case in.Op == isa.JALR:
			st.IndirectOps++
		}
		st.Defs += g.def[i].Count()
		for _, s := range g.succs[i] {
			if int(s) <= i {
				st.BackEdges++
			}
		}
		if g.reachable[i] {
			reach++
			live += g.mayIn[i].Count()
			dead += g.MustDeadOut(i).Count()
		}
	}
	st.Reachable = reach
	if reach > 0 {
		st.AvgMayLive = float64(live) / float64(reach)
		st.AvgMustDead = float64(dead) / float64(reach)
	}
	return st
}
