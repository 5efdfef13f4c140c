// Package isa defines µx64, the 64-bit load/store instruction set executed
// by the out-of-order core in internal/cpu.
//
// µx64 stands in for the paper's x86-64: macro-instructions crack into one
// or more micro-operations (µops), each addressed by the pair
// (RIP = macro-instruction index, uPC = µop index inside the macro-op).
// That pair is the grouping key of MeRLiN's fault-list reduction, so the ISA
// deliberately contains multi-µop instructions: a store cracks into a
// store-address µop (STA) and a store-data µop (STD), and the read-modify
// forms ldadd/ldxor/stadd crack into load + ALU (+ STA + STD) chains.
package isa

import (
	"fmt"
	"sync"
)

// NumArchRegs is the number of architectural general-purpose registers.
// r15 conventionally holds the stack pointer and r14 the link register.
const NumArchRegs = 16

// Conventional register aliases used by the assembler.
const (
	RegSP = 15 // stack pointer
	RegLR = 14 // link register
)

// Op enumerates macro-instruction opcodes.
type Op uint8

// Macro-instruction opcodes.
const (
	NOP Op = iota

	// Register ALU: rd = rs1 op rs2.
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	MUL
	DIV // signed; divide by zero raises ExcDivZero
	REM
	SLT  // rd = (rs1 < rs2) signed
	SLTU // rd = (rs1 < rs2) unsigned

	// Immediate ALU: rd = rs1 op imm.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	MULI

	// LI loads a full 64-bit immediate: rd = imm.
	LI

	// Loads: rd = mem[rs1+imm], zero- or sign-extended per size.
	LD  // 8 bytes
	LW  // 4 bytes, sign-extend
	LWU // 4 bytes, zero-extend
	LH  // 2 bytes, sign-extend
	LHU // 2 bytes, zero-extend
	LB  // 1 byte, sign-extend
	LBU // 1 byte, zero-extend

	// Stores: mem[rs1+imm] = rs2 (low size bytes).
	SD
	SW
	SH
	SB

	// Read-modify macro-ops (multi-µop, x86 flavour).
	LDADD // rd = mem[rs1+imm] + rs2      (LOAD, ALU)
	LDXOR // rd = mem[rs1+imm] ^ rs2      (LOAD, ALU)
	STADD // mem[rs1+imm] += rs2          (LOAD, ALU, STA, STD)

	// Control flow. Branch targets are macro-instruction indexes.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL  // rd = RIP+1; jump to Imm (rd may be NoReg)
	JALR // rd = RIP+1; jump to rs1+imm (indirect)

	// OUT appends the 64-bit value of rs1 to the architectural output
	// stream at commit. The output stream is what SDC detection compares.
	OUT

	// HALT stops the program normally.
	HALT

	numOps
)

// NoReg marks an absent register operand.
const NoReg = -1

// Inst is one macro-instruction. Programs are slices of Inst; the fetch
// stage addresses them by index (the RIP).
type Inst struct {
	Op  Op
	Rd  int8  // destination register or NoReg
	Rs1 int8  // first source or NoReg
	Rs2 int8  // second source or NoReg
	Imm int64 // immediate / branch target / address offset
}

// UopKind classifies a micro-operation for scheduling purposes.
type UopKind uint8

// Micro-operation kinds.
const (
	UopALU  UopKind = iota // single-cycle integer op
	UopMul                 // complex integer unit (mul/div/rem)
	UopLoad                // address generation + data cache read
	UopSTA                 // store address generation
	UopSTD                 // store data capture into the store queue
	UopBr                  // conditional branch / direct jump
	UopJmp                 // indirect jump (JALR)
	UopOut                 // architectural output at commit
	UopHalt                // program termination
	UopNop
)

// Uop is one micro-operation of a cracked macro-instruction. Temp registers
// connect the µops of one macro-op: TempDst/TempSrc index a per-instruction
// virtual register that the renamer maps to a fresh physical register.
type Uop struct {
	Kind    UopKind
	Op      Op // the macro opcode (selects ALU function, load size, ...)
	UPC     uint8
	Rd      int8 // architectural destination or NoReg
	Rs1     int8
	Rs2     int8
	Imm     int64
	TempDst int8  // intra-instruction temp written (or NoReg)
	TempSrc int8  // intra-instruction temp read as the first operand (or NoReg)
	MemSize uint8 // access size in bytes for memory µops
	Signed  bool  // sign-extend loads
}

// MemSizeOf returns the access size in bytes for a memory opcode.
func MemSizeOf(op Op) uint8 {
	switch op {
	case LD, SD, LDADD, LDXOR, STADD:
		return 8
	case LW, LWU, SW:
		return 4
	case LH, LHU, SH:
		return 2
	case LB, LBU, SB:
		return 1
	}
	return 0
}

// IsLoad reports whether op reads data memory.
func IsLoad(op Op) bool {
	switch op {
	case LD, LW, LWU, LH, LHU, LB, LBU, LDADD, LDXOR, STADD:
		return true
	}
	return false
}

// IsStore reports whether op writes data memory.
func IsStore(op Op) bool {
	switch op {
	case SD, SW, SH, SB, STADD:
		return true
	}
	return false
}

// IsCondBranch reports whether op is a conditional branch.
func IsCondBranch(op Op) bool {
	switch op {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return true
	}
	return false
}

// Crack decomposes a macro-instruction into its µops. The returned slice is
// freshly allocated for multi-µop instructions; single-µop results reuse a
// small lookup to stay allocation-light in the fetch path.
func Crack(in Inst) []Uop {
	switch in.Op {
	case SD, SW, SH, SB:
		// STA computes the address from Rs1+Imm; STD captures Rs2 into
		// the store-queue data field.
		return []Uop{
			{Kind: UopSTA, Op: in.Op, UPC: 0, Rd: NoReg, Rs1: in.Rs1, Rs2: NoReg, Imm: in.Imm, TempDst: NoReg, TempSrc: NoReg, MemSize: MemSizeOf(in.Op)},
			{Kind: UopSTD, Op: in.Op, UPC: 1, Rd: NoReg, Rs1: in.Rs2, Rs2: NoReg, TempDst: NoReg, TempSrc: NoReg, MemSize: MemSizeOf(in.Op)},
		}
	case LDADD, LDXOR:
		alu := ADD
		if in.Op == LDXOR {
			alu = XOR
		}
		return []Uop{
			{Kind: UopLoad, Op: LD, UPC: 0, Rd: NoReg, Rs1: in.Rs1, Rs2: NoReg, Imm: in.Imm, TempDst: 0, TempSrc: NoReg, MemSize: 8},
			{Kind: UopALU, Op: alu, UPC: 1, Rd: in.Rd, Rs1: NoReg, Rs2: in.Rs2, TempDst: NoReg, TempSrc: 0},
		}
	case STADD:
		return []Uop{
			{Kind: UopLoad, Op: LD, UPC: 0, Rd: NoReg, Rs1: in.Rs1, Rs2: NoReg, Imm: in.Imm, TempDst: 0, TempSrc: NoReg, MemSize: 8},
			{Kind: UopALU, Op: ADD, UPC: 1, Rd: NoReg, Rs1: NoReg, Rs2: in.Rs2, TempDst: 1, TempSrc: 0},
			{Kind: UopSTA, Op: SD, UPC: 2, Rd: NoReg, Rs1: in.Rs1, Rs2: NoReg, Imm: in.Imm, TempDst: NoReg, TempSrc: NoReg, MemSize: 8},
			{Kind: UopSTD, Op: SD, UPC: 3, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, TempDst: NoReg, TempSrc: 1, MemSize: 8},
		}
	}

	u := Uop{Op: in.Op, UPC: 0, Rd: in.Rd, Rs1: in.Rs1, Rs2: in.Rs2, Imm: in.Imm, TempDst: NoReg, TempSrc: NoReg}
	switch in.Op {
	case NOP:
		u.Kind = UopNop
	case MUL, DIV, REM, MULI:
		u.Kind = UopMul
	case LD, LW, LWU, LH, LHU, LB, LBU:
		u.Kind = UopLoad
		u.MemSize = MemSizeOf(in.Op)
		u.Signed = in.Op == LW || in.Op == LH || in.Op == LB
	case BEQ, BNE, BLT, BGE, BLTU, BGEU, JAL:
		u.Kind = UopBr
	case JALR:
		u.Kind = UopJmp
	case OUT:
		u.Kind = UopOut
	case HALT:
		u.Kind = UopHalt
	default:
		u.Kind = UopALU
	}
	return []Uop{u}
}

// NumUops returns the number of µops in the cracked form of op without
// allocating.
func NumUops(op Op) int {
	switch op {
	case SD, SW, SH, SB, LDADD, LDXOR:
		return 2
	case STADD:
		return 4
	}
	return 1
}

var opNames = [numOps]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", MUL: "mul", DIV: "div", REM: "rem",
	SLT: "slt", SLTU: "sltu", ADDI: "addi", ANDI: "andi", ORI: "ori",
	XORI: "xori", SLLI: "slli", SRLI: "srli", SRAI: "srai", SLTI: "slti",
	MULI: "muli", LI: "li", LD: "ld", LW: "lw", LWU: "lwu", LH: "lh",
	LHU: "lhu", LB: "lb", LBU: "lbu", SD: "sd", SW: "sw", SH: "sh", SB: "sb",
	LDADD: "ldadd", LDXOR: "ldxor", STADD: "stadd", BEQ: "beq", BNE: "bne",
	BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu", JAL: "jal",
	JALR: "jalr", OUT: "out", HALT: "halt",
}

// String returns the assembler mnemonic for op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

func regName(r int8) string {
	if r == NoReg {
		return "-"
	}
	return fmt.Sprintf("r%d", r)
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch {
	case in.Op == HALT || in.Op == NOP:
		return in.Op.String()
	case in.Op == OUT:
		return fmt.Sprintf("out %s", regName(in.Rs1))
	case in.Op == LI:
		return fmt.Sprintf("li %s, %d", regName(in.Rd), in.Imm)
	case IsStore(in.Op) && in.Op != STADD:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, regName(in.Rs1), in.Imm, regName(in.Rs2))
	case in.Op == STADD:
		return fmt.Sprintf("stadd [%s%+d], %s", regName(in.Rs1), in.Imm, regName(in.Rs2))
	case IsLoad(in.Op) && in.Op != LDADD && in.Op != LDXOR:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, regName(in.Rd), regName(in.Rs1), in.Imm)
	case in.Op == LDADD || in.Op == LDXOR:
		return fmt.Sprintf("%s %s, %s, [%s%+d]", in.Op, regName(in.Rd), regName(in.Rs2), regName(in.Rs1), in.Imm)
	case IsCondBranch(in.Op):
		return fmt.Sprintf("%s %s, %s, %d", in.Op, regName(in.Rs1), regName(in.Rs2), in.Imm)
	case in.Op == JAL:
		return fmt.Sprintf("jal %s, %d", regName(in.Rd), in.Imm)
	case in.Op == JALR:
		return fmt.Sprintf("jalr %s, %s, %d", regName(in.Rd), regName(in.Rs1), in.Imm)
	case in.Rs2 == NoReg:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, regName(in.Rd), regName(in.Rs1), in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, regName(in.Rd), regName(in.Rs1), regName(in.Rs2))
	}
}

// Program is a loaded executable image: the text segment (fetched by
// macro-instruction index), the initial data segment placed at DataBase, and
// the symbol table produced by the assembler.
type Program struct {
	Name    string
	Text    []Inst
	Data    []byte // initial bytes at DataBase
	Symbols map[string]int64
	Entry   int // starting RIP

	uopsOnce sync.Once
	uops     []Uop
	uopFirst []int32
}

// Uops returns the program's static µop table — Crack of every Text entry,
// flattened: the µops of Text[pc] are flat[first[pc]:first[pc+1]] — decoded
// once on first use and shared, read-only, by every core that runs the
// program (campaigns build thousands of cores per program). In-flight
// pipeline records refer to a µop by its index in flat instead of carrying
// a copy. Text must not change after the first call.
func (p *Program) Uops() (flat []Uop, first []int32) {
	p.uopsOnce.Do(func() {
		p.uopFirst = make([]int32, len(p.Text)+1)
		for i, in := range p.Text {
			p.uops = append(p.uops, Crack(in)...)
			p.uopFirst[i+1] = int32(len(p.uops))
		}
	})
	return p.uops, p.uopFirst
}

// Memory layout constants shared by the assembler, loader and core. The
// region [DataBase, MemTop) is mapped; anything else faults.
const (
	DataBase = 0x1000   // data segment base address
	MemTop   = 0x200000 // top of mapped memory; initial stack pointer
	StackTop = MemTop   // stack grows down from here
)

// Symbol returns the address of an assembler label, or panics if absent —
// workload builders rely on labels they themselves defined.
func (p *Program) Symbol(name string) int64 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("isa: program %q has no symbol %q", p.Name, name))
	}
	return v
}
