package cpu

import (
	"reflect"
	"testing"

	"merlin/internal/asm"
	"merlin/internal/lifetime"
)

func run(t *testing.T, src string) RunResult {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return runChecked(t, New(DefaultConfig(), p), 2_000_000)
}

func wantOutput(t *testing.T, res RunResult, want ...uint64) {
	t.Helper()
	if res.Halt != HaltOK {
		t.Fatalf("halt = %v, want clean halt", res.Halt)
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
		li r1, 7
		li r2, 5
		add r3, r1, r2
		sub r4, r1, r2
		mul r5, r1, r2
		div r6, r1, r2
		rem r7, r1, r2
		out r3
		out r4
		out r5
		out r6
		out r7
		halt
	`)
	wantOutput(t, res, 12, 2, 35, 1, 2)
}

func TestNegativeArithmetic(t *testing.T) {
	res := run(t, `
		li r1, -7
		li r2, 2
		div r3, r1, r2
		rem r4, r1, r2
		sra r5, r1, r2
		srl r6, r1, r2
		slt r7, r1, r2
		sltu r8, r1, r2
		out r3
		out r4
		out r5
		out r6
		out r7
		out r8
		halt
	`)
	wantOutput(t, res,
		uint64(0xFFFFFFFFFFFFFFFD), // -3
		uint64(0xFFFFFFFFFFFFFFFF), // -1
		uint64(0xFFFFFFFFFFFFFFFE), // -7>>2 arithmetic = -2
		uint64(0x3FFFFFFFFFFFFFFE), // logical shift
		1, 0)
}

func TestLogicAndShifts(t *testing.T) {
	res := run(t, `
		li r1, 0xf0f0
		li r2, 0x0ff0
		and r3, r1, r2
		or  r4, r1, r2
		xor r5, r1, r2
		slli r6, r1, 4
		srli r7, r1, 4
		andi r8, r1, 0xff
		ori  r9, r1, 0x0f
		xori r10, r1, 0xffff
		out r3
		out r4
		out r5
		out r6
		out r7
		out r8
		out r9
		out r10
		halt
	`)
	wantOutput(t, res, 0x0f0, 0xfff0, 0xff00, 0xf0f00, 0xf0f, 0xf0, 0xf0ff, 0x0f0f)
}

func TestLoopSum(t *testing.T) {
	// sum 1..100 = 5050
	res := run(t, `
		li r1, 0
		li r2, 1
		li r3, 100
	loop:
		add r1, r1, r2
		addi r2, r2, 1
		ble r2, r3, loop
		out r1
		halt
	`)
	wantOutput(t, res, 5050)
}

func TestMemoryOps(t *testing.T) {
	res := run(t, `
		.data
	arr:	.word 10, 20, 30
	buf:	.space 32
		.text
		li r1, arr
		ld r2, [r1]
		ld r3, [r1+8]
		ld r4, [r1+16]
		add r5, r2, r3
		add r5, r5, r4
		li r6, buf
		sd [r6], r5
		ld r7, [r6]
		out r7
		; sub-word accesses
		li r8, 0x1122334455667788
		sd [r6+8], r8
		lw r9, [r6+8]
		lwu r10, [r6+8]
		lh r11, [r6+8]
		lb r12, [r6+8]
		lbu r13, [r6+12]
		out r9
		out r10
		out r11
		out r12
		out r13
		halt
	`)
	wantOutput(t, res, 60,
		0x55667788, // lw sign bit clear
		0x55667788,
		0x7788,
		uint64(0xFFFFFFFFFFFFFF88), // lb sign-extends 0x88
		0x44,                       // byte at offset 4 of the little-endian dword
	)
}

func TestStoreToLoadForwarding(t *testing.T) {
	// The load directly follows the store; the value must forward from the
	// SQ before the store drains.
	res := run(t, `
		.data
	buf:	.space 8
		.text
		li r1, buf
		li r2, 777
		sd [r1], r2
		ld r3, [r1]
		out r3
		halt
	`)
	wantOutput(t, res, 777)
}

func TestSubWordForwarding(t *testing.T) {
	res := run(t, `
		.data
	buf:	.space 8
		.text
		li r1, buf
		li r2, 0xcafebabe
		sd [r1], r2
		lh r3, [r1+2]   ; bytes 2..3 of the stored dword: 0xcafe -> sign-extends
		lbu r4, [r1+3]
		out r3
		out r4
		halt
	`)
	wantOutput(t, res, uint64(0xFFFFFFFFFFFFCAFE), 0xca)
}

func TestReadModifyWriteMacroOps(t *testing.T) {
	res := run(t, `
		.data
	cell:	.word 100
		.text
		li r1, cell
		li r2, 11
		ldadd r3, r2, [r1]   ; r3 = 100+11
		stadd [r1], r2       ; cell = 111... no: cell was 100, becomes 111
		ld r4, [r1]
		ldxor r5, r2, [r1]   ; 111 ^ 11
		out r3
		out r4
		out r5
		halt
	`)
	wantOutput(t, res, 111, 111, 111^11)
}

func TestCallRet(t *testing.T) {
	res := run(t, `
		li r1, 6
		call double
		out r1
		li r1, 21
		call double
		out r1
		halt
	double:
		add r1, r1, r1
		ret
	`)
	wantOutput(t, res, 12, 42)
}

func TestRecursion(t *testing.T) {
	// fib(10) = 55 with a recursive function using the simulated stack.
	res := run(t, `
		li r1, 10
		call fib
		out r2
		halt
	fib:	; r1 = n, returns r2
		li r3, 2
		blt r1, r3, base
		addi sp, sp, -24
		sd [sp], lr
		sd [sp+8], r1
		addi r1, r1, -1
		call fib
		ld r1, [sp+8]
		sd [sp+16], r2
		addi r1, r1, -2
		call fib
		ld r3, [sp+16]
		add r2, r2, r3
		ld lr, [sp]
		addi sp, sp, 24
		ret
	base:
		mv r2, r1
		ret
	`)
	wantOutput(t, res, 55)
}

func TestBranchKinds(t *testing.T) {
	res := run(t, `
		li r1, -1
		li r2, 1
		li r9, 0
		bltu r2, r1, a   ; unsigned: 1 < huge -> taken
		j fail
	a:	blt r1, r2, b    ; signed: -1 < 1 -> taken
		j fail
	b:	bge r2, r1, c    ; signed: 1 >= -1 -> taken
		j fail
	c:	bgeu r1, r2, d   ; unsigned: huge >= 1 -> taken
		j fail
	d:	beq r9, r9, e
		j fail
	e:	bne r1, r2, ok
		j fail
	fail:	li r9, 666
	ok:	out r9
		halt
	`)
	wantOutput(t, res, 0)
}

func TestIndirectJump(t *testing.T) {
	res := run(t, `
		li r1, target
		jalr r2, r1, 0
		out r2        ; skipped
		halt
	target:
		li r3, 9
		out r3
		halt
	`)
	wantOutput(t, res, 9)
}

func TestCrashBadFetch(t *testing.T) {
	res := run(t, `
		li r1, 123456
		jalr r2, r1, 0
		halt
	`)
	if res.Halt != CrashBadFetch {
		t.Fatalf("halt = %v, want bad-fetch crash", res.Halt)
	}
}

func TestCrashPageFaultLoad(t *testing.T) {
	res := run(t, `
		li r1, 0
		ld r2, [r1]   ; null pointer
		out r2
		halt
	`)
	if res.Halt != CrashPageFault {
		t.Fatalf("halt = %v, want page-fault crash", res.Halt)
	}
	if len(res.Output) != 0 {
		t.Errorf("output %v leaked past the fault", res.Output)
	}
}

func TestCrashPageFaultStore(t *testing.T) {
	res := run(t, `
		li r1, 0x7fffffff0000
		li r2, 1
		sd [r1], r2   ; wild store
		halt
	`)
	if res.Halt != CrashPageFault {
		t.Fatalf("halt = %v, want page-fault crash", res.Halt)
	}
}

func TestCrashDivZero(t *testing.T) {
	res := run(t, `
		li r1, 10
		li r2, 0
		div r3, r1, r2
		out r3
		halt
	`)
	if res.Halt != CrashDivZero {
		t.Fatalf("halt = %v, want div-zero crash", res.Halt)
	}
}

func TestDivMinByMinusOne(t *testing.T) {
	res := run(t, `
		li r1, -9223372036854775808
		li r2, -1
		div r3, r1, r2
		rem r4, r1, r2
		out r3
		out r4
		halt
	`)
	// Two's-complement wrap, like hardware.
	wantOutput(t, res, 0x8000000000000000, 0)
}

func TestMisalignedAccessIsDUENotCrash(t *testing.T) {
	res := run(t, `
		.data
	buf:	.space 16
		.text
		li r1, buf
		li r2, 0x1234567890
		sd [r1+1], r2   ; misaligned store: kernel fixup + exception log
		ld r3, [r1+1]   ; wait: misaligned load too
		out r3
		halt
	`)
	if res.Halt != HaltOK {
		t.Fatalf("halt = %v, want clean halt with fixups", res.Halt)
	}
	if len(res.ExcLog) == 0 {
		t.Fatal("misaligned accesses must log exceptions")
	}
	if res.Output[0] != 0x1234567890 {
		t.Fatalf("fixed-up misaligned access returned %#x", res.Output[0])
	}
}

func TestWrongPathFaultSuppressed(t *testing.T) {
	// The load of [r0-ish garbage] sits on the not-taken path of a branch
	// that is always taken; after the (initially mispredicted-as-not-taken
	// or predicted) branch resolves, the wrong-path load must be squashed
	// without crashing the machine.
	res := run(t, `
		li r1, 0
		li r5, 1
		li r6, 50
	loop:
		beq r5, r5, skip   ; always taken
		ld r9, [r1]        ; wild load on the never-taken path
	skip:
		addi r1, r1, 1
		blt r1, r6, loop
		out r1
		halt
	`)
	wantOutput(t, res, 50)
}

func TestCycleLimit(t *testing.T) {
	p, err := asm.Assemble("spin", `
	spin:	j spin
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), p)
	res := c.Run(10_000)
	if res.Halt != CycleLimit {
		t.Fatalf("halt = %v, want cycle limit", res.Halt)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
		.data
	arr:	.space 256
		.text
		li r1, arr
		li r2, 0
		li r3, 32
	fill:
		mul r4, r2, r2
		sd [r1], r4
		addi r1, r1, 8
		addi r2, r2, 1
		blt r2, r3, fill
		li r1, arr
		li r2, 0
		li r5, 0
	sum:
		ld r4, [r1]
		add r5, r5, r4
		addi r1, r1, 8
		addi r2, r2, 1
		blt r2, r3, sum
		out r5
		halt
	`
	p, err := asm.Assemble("det", src)
	if err != nil {
		t.Fatal(err)
	}
	a := New(DefaultConfig(), p).Run(1_000_000)
	b := New(DefaultConfig(), p).Run(1_000_000)
	if a.Cycles != b.Cycles || !reflect.DeepEqual(a.Output, b.Output) || a.Stats != b.Stats {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
	var want uint64
	for i := uint64(0); i < 32; i++ {
		want += i * i
	}
	wantOutput(t, a, want)
}

func TestSmallConfigsStillWork(t *testing.T) {
	cfg := DefaultConfig().WithRF(64).WithSQ(16).WithL1D(16 << 10)
	p, err := asm.Assemble("small", `
		li r1, 0
		li r2, 200
		li r3, 0
	loop:
		addi sp, sp, -8
		sd [sp], r1
		ld r4, [sp]
		addi sp, sp, 8
		add r3, r3, r4
		addi r1, r1, 1
		blt r1, r2, loop
		out r3
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := New(cfg, p).Run(2_000_000)
	if res.Halt != HaltOK || res.Output[0] != 199*200/2 {
		t.Fatalf("small config run: halt=%v out=%v", res.Halt, res.Output)
	}
}

func TestFaultInjectionRF(t *testing.T) {
	// Flip a bit in the physical register holding a live value right
	// before it is read: the output must change by exactly that bit.
	src := `
		li r1, 100
		li r2, 0
		li r3, 1000
	loop:
		addi r2, r2, 1
		blt r2, r3, loop
		out r1
		halt
	`
	p, err := asm.Assemble("inj", src)
	if err != nil {
		t.Fatal(err)
	}
	golden := New(DefaultConfig(), p).Run(1_000_000)
	if golden.Halt != HaltOK {
		t.Fatal("golden run failed")
	}

	c := New(DefaultConfig(), p)
	// r1 is renamed once at the start; its physical register keeps the
	// value 100 until the out reads it near the end. Find the phys reg by
	// flipping in the architectural map after the rename settled.
	for c.Cycle() < 200 {
		c.Step()
	}
	phys := c.rat[1]
	c.FlipBit(lifetime.StructRF, int(phys), 3)
	res := c.Run(1_000_000)
	if res.Halt != HaltOK {
		t.Fatalf("halt = %v", res.Halt)
	}
	if res.Output[0] != golden.Output[0]^8 {
		t.Fatalf("output %d, want %d (bit 3 flipped)", res.Output[0], golden.Output[0]^8)
	}
}

func TestFaultInjectionL1D(t *testing.T) {
	// Write a value, evict nothing, flip a cache bit, read it back.
	src := `
		.data
	buf:	.space 8
		.text
		li r1, buf
		li r2, 0
		sd [r1], r2
		li r3, 0
		li r4, 2000
	spin:	addi r3, r3, 1
		blt r3, r4, spin
		ld r5, [r1]
		out r5
		halt
	`
	p, err := asm.Assemble("injc", src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), p)
	for c.Cycle() < 500 {
		c.Step()
	}
	entry, hit := c.l1d.Probe(uint64(p.Symbol("buf")))
	if !hit {
		t.Fatal("buf line not resident after the store")
	}
	off := c.l1d.Offset(uint64(p.Symbol("buf")))
	c.FlipBit(lifetime.StructL1D, entry, off*8+5)
	res := c.Run(1_000_000)
	if res.Halt != HaltOK || res.Output[0] != 32 {
		t.Fatalf("halt=%v output=%v, want [32]", res.Halt, res.Output)
	}
}

func TestStatsSanity(t *testing.T) {
	res := run(t, `
		li r1, 0
		li r2, 64
	loop:
		addi r1, r1, 1
		blt r1, r2, loop
		out r1
		halt
	`)
	if res.Stats.CommittedInsts == 0 || res.Stats.CommittedUops < res.Stats.CommittedInsts {
		t.Errorf("stats: %+v", res.Stats)
	}
	if res.Stats.Branches < 63 {
		t.Errorf("branches = %d, want >= 63", res.Stats.Branches)
	}
	if res.Cycles == 0 {
		t.Error("cycles = 0")
	}
}

func TestMispredictRecovery(t *testing.T) {
	// A data-dependent unpredictable branch pattern; correctness must
	// survive heavy misprediction.
	res := run(t, `
		li r1, 0     ; i
		li r2, 0     ; acc
		li r3, 1     ; lfsr-ish state
		li r4, 200
	loop:
		; pseudo-random decision: state = state*1103515245+12345; bit 16
		muli r3, r3, 1103515245
		addi r3, r3, 12345
		srli r5, r3, 16
		andi r5, r5, 1
		beq r5, r0, even
		addi r2, r2, 3
		j next
	even:
		addi r2, r2, 5
	next:
		addi r1, r1, 1
		blt r1, r4, loop
		out r2
		halt
	`)
	if res.Halt != HaltOK {
		t.Fatalf("halt = %v", res.Halt)
	}
	// Reference: compute the same in Go.
	state, acc := int64(1), uint64(0)
	for i := 0; i < 200; i++ {
		state = state*1103515245 + 12345
		if (state>>16)&1 != 0 {
			acc += 3
		} else {
			acc += 5
		}
	}
	if res.Output[0] != acc {
		t.Fatalf("output %d, want %d", res.Output[0], acc)
	}
	if res.Stats.Mispredicts == 0 {
		t.Error("expected mispredictions on a random pattern")
	}
}

func TestOutOnWrongPathSuppressed(t *testing.T) {
	res := run(t, `
		li r1, 1
		beq r1, r1, over  ; always taken
		out r1            ; must never appear
	over:
		li r2, 2
		out r2
		halt
	`)
	wantOutput(t, res, 2)
}

func TestTracerLifecycleEvents(t *testing.T) {
	p, err := asm.Assemble("tr", `
		.data
	buf:	.space 8
		.text
		li r1, buf
		li r2, 42
		sd [r1], r2
		ld r3, [r1]
		out r3
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), p)
	tr := lifetime.NewTracer(lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D)
	c.AttachTracer(tr)
	res := c.Run(1_000_000)
	if res.Halt != HaltOK {
		t.Fatal(res.Halt)
	}
	if len(tr.Log(lifetime.StructRF).Events) == 0 {
		t.Error("no RF events recorded")
	}
	sqEvents := tr.Log(lifetime.StructSQ).Events
	var sqWrites, sqReads int
	for _, ev := range sqEvents {
		switch ev.Kind {
		case lifetime.EvWrite:
			sqWrites++
		case lifetime.EvRead:
			sqReads++
		}
	}
	if sqWrites == 0 {
		t.Error("no SQ write events")
	}
	// The store's data is read at least twice: forwarded to the load and
	// drained to the cache at commit.
	if sqReads < 2 {
		t.Errorf("SQ reads = %d, want >= 2 (forward + drain)", sqReads)
	}
	if len(tr.Log(lifetime.StructL1D).Events) == 0 {
		t.Error("no L1D events recorded")
	}
	// Event sequence numbers must be unique and increasing per log append
	// order is not guaranteed, but Seq values must be distinct.
	seen := map[uint64]bool{}
	for _, s := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D} {
		for _, ev := range tr.Log(s).Events {
			if seen[ev.Seq] {
				t.Fatalf("duplicate event seq %d", ev.Seq)
			}
			seen[ev.Seq] = true
		}
	}
}

func TestPartialOverlapStoreLoadStalls(t *testing.T) {
	// A narrow store followed by a wider load overlapping it: the load
	// must wait for the store to drain and then read merged data.
	res := run(t, `
		.data
	buf:	.word 0
		.text
		li r1, buf
		li r2, 0x1111111111111111
		sd [r1], r2
		li r3, 0xff
		sb [r1+2], r3
		ld r4, [r1]    ; overlaps the byte store partially
		out r4
		halt
	`)
	wantOutput(t, res, 0x1111111111ff1111)
}

func TestRegisterReuseAcrossRename(t *testing.T) {
	// Write the same architectural register repeatedly; physical registers
	// must recycle without corruption even with a tiny register file.
	cfg := DefaultConfig().WithRF(24)
	p, err := asm.Assemble("reuse", `
		li r1, 0
		li r2, 0
		li r3, 500
	loop:
		addi r4, r1, 7
		addi r4, r4, 9
		add r2, r2, r4
		addi r1, r1, 1
		blt r1, r3, loop
		out r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := New(cfg, p).Run(2_000_000)
	var want uint64
	for i := uint64(0); i < 500; i++ {
		want += i + 16
	}
	if res.Halt != HaltOK || res.Output[0] != want {
		t.Fatalf("halt=%v out=%v want=%d", res.Halt, res.Output, want)
	}
}

// TestNoPhysRegLeak verifies rename bookkeeping: after a clean halt, every
// physical register is either architecturally mapped or back on the free
// list — across heavy renaming, recursion, read-modify-write macro-ops and
// misprediction squashes, on a deliberately tiny register file.
func TestNoPhysRegLeak(t *testing.T) {
	srcs := map[string]string{
		"rename-churn": `
			li r1, 0
			li r2, 300
		loop:	addi r3, r1, 1
			addi r3, r3, 1
			addi r3, r3, 1
			addi r1, r1, 1
			blt r1, r2, loop
			out r3
			halt`,
		"rmw-and-calls": `
			.data
		cell:	.word 5
			.text
			li r1, cell
			li r2, 0
			li r4, 60
		loop:	stadd [r1], r2
			ldadd r3, r2, [r1]
			call bump
			addi r2, r2, 1
			blt r2, r4, loop
			out r3
			halt
		bump:	addi r3, r3, 1
			ret`,
		"mispredict-heavy": `
			li r1, 1
			li r2, 0
			li r4, 150
		loop:	muli r1, r1, 1103515245
			addi r1, r1, 12345
			srli r3, r1, 16
			andi r3, r3, 1
			beq r3, r0, even
			addi r2, r2, 1
		even:	addi r4, r4, -1
			li r3, 0
			bgt r4, r3, loop
			out r2
			halt`,
	}
	cfg := DefaultConfig().WithRF(24).WithSQ(16)
	cfg.ROBEntries = 20
	for name, src := range srcs {
		p, err := asm.Assemble(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := New(cfg, p)
		if res := c.Run(5_000_000); res.Halt != HaltOK {
			t.Fatalf("%s: halt = %v", name, res.Halt)
		}
		mapped := map[int16]bool{}
		for _, phys := range c.rat {
			if mapped[phys] {
				t.Fatalf("%s: two architectural registers map to phys %d", name, phys)
			}
			mapped[phys] = true
		}
		// Any ROB residue (the HALT µop itself) holds no destinations.
		inFlight := 0
		for i := 0; i < c.robLen; i++ {
			e := &c.rob[(c.robHead+i)%len(c.rob)]
			if e.physDest >= 0 {
				inFlight++
			}
		}
		free := len(c.freeList)
		if free+len(mapped)+inFlight != cfg.PhysRegs {
			t.Errorf("%s: leak: %d free + %d mapped + %d in-flight != %d physical registers",
				name, free, len(mapped), inFlight, cfg.PhysRegs)
		}
		for _, f := range c.freeList {
			if mapped[f] {
				t.Errorf("%s: phys %d both free and architecturally mapped", name, f)
			}
		}
	}
}
