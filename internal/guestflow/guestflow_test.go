package guestflow

import (
	"fmt"
	"testing"

	"merlin/internal/conformance/gen"
	"merlin/internal/isa"
)

// inst builders for hand-written test programs. The Inst zero value has
// Rs1/Rs2 = 0 (= r0, a real register), so every unused operand must be
// NoReg explicitly.
func li(rd int8, imm int64) isa.Inst {
	return isa.Inst{Op: isa.LI, Rd: rd, Rs1: isa.NoReg, Rs2: isa.NoReg, Imm: imm}
}
func add(rd, rs1, rs2 int8) isa.Inst {
	return isa.Inst{Op: isa.ADD, Rd: rd, Rs1: rs1, Rs2: rs2}
}
func beq(rs1, rs2 int8, target int64) isa.Inst {
	return isa.Inst{Op: isa.BEQ, Rd: isa.NoReg, Rs1: rs1, Rs2: rs2, Imm: target}
}
func jal(rd int8, target int64) isa.Inst {
	return isa.Inst{Op: isa.JAL, Rd: rd, Rs1: isa.NoReg, Rs2: isa.NoReg, Imm: target}
}
func jalr(rd, rs1 int8) isa.Inst {
	return isa.Inst{Op: isa.JALR, Rd: rd, Rs1: rs1, Rs2: isa.NoReg}
}
func out(rs1 int8) isa.Inst {
	return isa.Inst{Op: isa.OUT, Rd: isa.NoReg, Rs1: rs1, Rs2: isa.NoReg}
}
func halt() isa.Inst {
	return isa.Inst{Op: isa.HALT, Rd: isa.NoReg, Rs1: isa.NoReg, Rs2: isa.NoReg}
}

func prog(name string, text ...isa.Inst) *isa.Program {
	return &isa.Program{Name: name, Text: text}
}

func set(regs ...int8) RegSet {
	var s RegSet
	for _, r := range regs {
		s |= 1 << uint(r)
	}
	return s
}

// refMayLiveIn is the independent liveness reference: r is may-live-in at
// i iff a use of r is reachable from i in the CFG restricted so that
// nodes defining r (without first using it) have no out-edges. Plain
// graph reachability — no dataflow fixpoint shared with the unit under
// test.
func refMayLiveIn(g *Analysis, i int, r int8) bool {
	seen := make([]bool, len(g.Prog.Text))
	var dfs func(n int) bool
	dfs = func(n int) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		if g.use[n].Has(r) {
			return true
		}
		if g.def[n].Has(r) {
			return false
		}
		for _, s := range g.Succs(n) {
			if dfs(int(s)) {
				return true
			}
		}
		return false
	}
	return dfs(i)
}

// checkAgainstReference compares the fixpoint liveness against the
// path-based reference on every reachable instruction and register.
func checkAgainstReference(t *testing.T, g *Analysis) {
	t.Helper()
	for i := range g.Prog.Text {
		if !g.Reachable(i) {
			continue
		}
		for r := int8(0); r < isa.NumArchRegs; r++ {
			if got, want := g.MayLiveIn(i).Has(r), refMayLiveIn(g, i, r); got != want {
				t.Errorf("%s: may-live-in(%d, r%d) = %v, reference says %v", g.Prog.Name, i, r, got, want)
			}
		}
	}
}

// TestLivenessHandWritten pins exact live sets on a diamond CFG:
//
//	0  li   r1, 5
//	1  li   r2, 7
//	2  beq  r1, r2 -> 5
//	3  add  r3, r1, r2     (fallthrough arm: r3 := r1+r2)
//	4  jal  -> 6
//	5  add  r3, r2, r2     (taken arm: r1 dead here)
//	6  out  r3
//	7  halt
func TestLivenessHandWritten(t *testing.T) {
	p := prog("diamond",
		li(1, 5), li(2, 7), beq(1, 2, 5),
		add(3, 1, 2), jal(isa.NoReg, 6),
		add(3, 2, 2), out(3), halt(),
	)
	g := Analyze(p)

	cases := []struct {
		i             int
		mayIn, mayOut RegSet
	}{
		{0, set(), set(1)},
		{1, set(1), set(1, 2)},
		{2, set(1, 2), set(1, 2)},
		{3, set(1, 2), set(3)},
		{4, set(3), set(3)},
		{5, set(2), set(3)},
		{6, set(3), set()},
		{7, set(), set()},
	}
	for _, c := range cases {
		if g.MayLiveIn(c.i) != c.mayIn || g.MayLiveOut(c.i) != c.mayOut {
			t.Errorf("inst %d: may-live in/out = %s/%s, want %s/%s",
				c.i, g.MayLiveIn(c.i), g.MayLiveOut(c.i), c.mayIn, c.mayOut)
		}
	}
	if got := g.MustDeadOut(6); !got.Has(3) {
		t.Errorf("must-dead-out(6) = %s: r3 must be dead after its last read", got)
	}
	checkAgainstReference(t, g)
}

// TestLivenessLoop: a counted loop keeps its counter and accumulator
// may-live around the back edge.
//
//	0  li   r1, 10        counter
//	1  li   r2, 0         accumulator
//	2  add  r2, r2, r1    loop body
//	3  add  r1, r1, r3    r3 never defined: its reset value feeds it
//	4  bne  r1, r0 -> 2
//	5  out  r2
//	6  halt
func TestLivenessLoop(t *testing.T) {
	p := prog("loop",
		li(1, 10), li(2, 0),
		add(2, 2, 1),
		add(1, 1, 3),
		isa.Inst{Op: isa.BNE, Rd: isa.NoReg, Rs1: 1, Rs2: 0, Imm: 2},
		out(2), halt(),
	)
	g := Analyze(p)
	if in := g.MayLiveIn(2); in != set(0, 1, 2, 3) {
		t.Errorf("loop head may-live-in = %s, want %s", in, set(0, 1, 2, 3))
	}
	// r3 is live-in at entry (read but never written): it must be
	// may-live-in at the program entry.
	if !g.MayLiveIn(p.Entry).Has(3) {
		t.Errorf("r3 read-before-write not live-in at entry: %s", g.MayLiveIn(p.Entry))
	}
	checkAgainstReference(t, g)
}

// TestCFGShape pins successor sets: taken+fallthrough for conditional
// branches, target only for JAL, none for HALT, and out-of-range branch
// targets dropped rather than crashing.
func TestCFGShape(t *testing.T) {
	p := prog("cfg",
		beq(0, 0, 3),
		jal(isa.NoReg, 0),
		halt(),
		beq(0, 0, 99), // target outside text: edge dropped
		halt(),
	)
	g := Analyze(p)
	want := [][]int32{{1, 3}, {0}, {}, {4}, {}}
	for i, w := range want {
		got := g.Succs(i)
		if fmt.Sprint(got) != fmt.Sprint([]int32(w)) && !(len(got) == 0 && len(w) == 0) {
			t.Errorf("succs(%d) = %v, want %v", i, got, w)
		}
	}
	if !g.Reachable(0) || !g.Reachable(1) {
		t.Error("loop 0<->1 must be reachable")
	}
	if g.Reachable(2) {
		t.Error("instruction 2 is unreachable (jal 1 loops back to 0)")
	}
}

// TestJALRConservatism: an indirect jump's static successors are the
// labeled text targets plus every call-return site; with no labels at
// all, the fallback is every instruction.
func TestJALRConservatism(t *testing.T) {
	p := prog("jalr",
		li(1, 4),
		jalr(14, 1), // link in lr: instruction 2 is a return site
		out(2),
		halt(),
		li(2, 1),
		jalr(isa.NoReg, 14), // plain indirect jump, no link
		halt(),
	)
	p.Symbols = map[string]int64{
		"fn":   4,
		"data": 0x1000, // outside text: must be ignored
	}
	g := Analyze(p)
	want := []int32{2, 4}
	if fmt.Sprint(g.Succs(1)) != fmt.Sprint(want) {
		t.Errorf("jalr succs = %v, want labeled target + return site %v", g.Succs(1), want)
	}
	if fmt.Sprint(g.Succs(5)) != fmt.Sprint(want) {
		t.Errorf("second jalr succs = %v, want %v", g.Succs(5), want)
	}
	if fmt.Sprint(g.indirect) != fmt.Sprint(want) {
		t.Errorf("indirect target set = %v, want %v", g.indirect, want)
	}

	// No labels, no calls: the only sound answer is "anywhere".
	p2 := prog("jalr-blind", jalr(isa.NoReg, 1), halt(), halt())
	g2 := Analyze(p2)
	if fmt.Sprint(g2.Succs(0)) != fmt.Sprint([]int32{0, 1, 2}) {
		t.Errorf("blind jalr succs = %v, want every instruction", g2.Succs(0))
	}
}

// TestGeneratedKernelsAgainstReference runs the path-based reference
// over every generator class: real-sized programs with loops, stores,
// atomics and forward-branch DAG bodies.
func TestGeneratedKernelsAgainstReference(t *testing.T) {
	for _, class := range gen.Classes() {
		for seed := uint64(1); seed <= 3; seed++ {
			p := gen.Kernel(class, seed)
			g := Analyze(p)
			checkAgainstReference(t, g)
		}
	}
}

// TestStreamProgramsAgainstReference covers the fuzz grammar's shapes
// deterministically.
func TestStreamProgramsAgainstReference(t *testing.T) {
	inputs := [][]byte{
		{},
		{1, 2, 3, 4, 5, 6},
		{40, 1, 2, 3, 9, 0, 41, 9, 9, 9, 2, 0, 7, 7, 7, 7, 7, 7},
		{255, 254, 253, 252, 251, 250, 0, 1, 2, 3, 4, 5, 100, 90, 80, 70, 60, 50},
	}
	for _, in := range inputs {
		p := gen.DecodeStream(in)
		g := Analyze(p)
		checkAgainstReference(t, g)
	}
}

// TestAnalyzeDeterministic: two analyses of the same program must agree
// on every exported product (the session cross-verifies static against
// dynamic per fault, so any nondeterminism here would poison campaign
// reproducibility).
func TestAnalyzeDeterministic(t *testing.T) {
	p := gen.Kernel("mixed", 7)
	a, b := Analyze(p), Analyze(p)
	for i := range p.Text {
		if a.MayLiveIn(i) != b.MayLiveIn(i) || a.MayLiveOut(i) != b.MayLiveOut(i) ||
			fmt.Sprint(a.Succs(i)) != fmt.Sprint(b.Succs(i)) {
			t.Fatalf("analysis of %s not deterministic at instruction %d", p.Name, i)
		}
	}
	if fmt.Sprint(a.ComputeStats()) != fmt.Sprint(b.ComputeStats()) {
		t.Fatal("stats not deterministic")
	}
}

func TestRegSetString(t *testing.T) {
	if got := set(1, 14, 15).String(); got != "{r1,lr,sp}" {
		t.Errorf("RegSet.String() = %q", got)
	}
	if got := RegSet(0).String(); got != "{}" {
		t.Errorf("empty RegSet.String() = %q", got)
	}
}
