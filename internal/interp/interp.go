// Package interp is a functional (architectural) interpreter for µx64: it
// executes programs in order with no microarchitecture at all. It has two
// jobs. It is the reference of differential testing — the out-of-order
// core must produce the same committed outputs, exceptions and halt cause
// for every program, and the lockstep conformance engine
// (internal/conformance) diffs the detailed core against it at every
// retire boundary. And, because that equivalence is certified, it finishes
// injection runs: once a fault's effect is architectural, a campaign hands
// the faulty core's committed state (next PC, registers, memory image) to
// a Machine (Reset) and runs the rest of the program here. Run is one loop
// over one flat opcode switch, with the PC and step count in locals, and
// Step is a Run of one instruction, so there is a single implementation:
// BenchmarkInterpRun (internal/campaign) measures ~130–150M instructions/s
// on one 2-vCPU Xeon core, where the detailed core steps ~2.4M cycles/s.
package interp

import (
	"encoding/binary"

	"merlin/internal/isa"
)

// HaltReason mirrors the architectural subset of cpu.HaltReason.
type HaltReason uint8

// Architectural run outcomes.
const (
	HaltOK HaltReason = iota
	CrashPageFault
	CrashBadFetch
	CrashDivZero
	StepLimit
	// WatchTrip: a load touched the watched byte (Watch); the machine
	// stopped before executing it.
	WatchTrip
)

var haltNames = [...]string{"halt", "crash-pagefault", "crash-badfetch", "crash-divzero", "step-limit", "watch-trip"}

func (h HaltReason) String() string {
	if int(h) < len(haltNames) {
		return haltNames[h]
	}
	return "?"
}

// Result is the architectural outcome of a run.
type Result struct {
	Halt   HaltReason
	Output []uint64
	ExcLog []uint32 // recoverable exceptions: kind | rip<<3 (same encoding as cpu)
	Steps  uint64
}

// pageBits matches mem.PageSize (4KB) so conformance memory diffs can walk
// both machines' resident pages with one stride, and a core's memory image
// is handed over page by page.
const pageBits = 12
const pageSize = 1 << pageBits

// PageSource supplies the memory a Machine started by Reset runs on.
type PageSource interface {
	// ComposePage fills dst, one page long, with the bytes at the
	// page-aligned address base.
	ComposePage(base uint64, dst []byte)
}

// Machine is the architectural state, steppable one instruction at a time.
// Build one with NewMachine, or Reset a zero Machine.
type Machine struct {
	prog *isa.Program
	regs [isa.NumArchRegs]uint64
	// pages is the page table of the whole mapped range: an access costs
	// one index, not a map lookup. A nil slot is a page not touched yet; the
	// first touch fills it from src (zeros without one). free holds the
	// buffers of earlier runs for Reset to reuse.
	pages [isa.MemTop >> pageBits]*[pageSize]byte
	free  []*[pageSize]byte
	src   PageSource
	// A load touching the byte at watch stops the machine while watching;
	// a store covering it ends the watch.
	watch    uint64
	watching bool

	out   []uint64
	exc   []uint32
	pc    int64
	steps uint64
	halt  HaltReason
	done  bool

	// Last-step store effect, for retire-boundary comparison.
	lastStore bool
	lastAddr  uint64
	lastSize  uint8
	lastData  uint64
}

// NewMachine loads prog: data segment at isa.DataBase, stack pointer at
// isa.StackTop, PC at the entry point.
func NewMachine(prog *isa.Program) *Machine {
	m := new(Machine)
	m.Reset(prog, int64(prog.Entry), [isa.NumArchRegs]uint64{isa.RegSP: isa.StackTop}, nil)
	data := prog.Data[:min(len(prog.Data), isa.MemTop-isa.DataBase)]
	for addr := uint64(isa.DataBase); len(data) > 0; addr += pageSize {
		data = data[copy(m.page(addr)[addr&(pageSize-1):], data):]
	}
	return m
}

// Reset restarts the machine in the middle of a run of prog: pc is the next
// instruction to execute, regs the architectural registers, and src the
// memory image, read one page at a time as the run first touches each
// (nil: all zeros). Nothing else of the machine's previous run survives
// except its buffers, so a worker resetting one Machine per run allocates
// nothing once the buffers have grown.
func (m *Machine) Reset(prog *isa.Program, pc int64, regs [isa.NumArchRegs]uint64, src PageSource) {
	for i, p := range m.pages {
		if p != nil {
			m.free = append(m.free, p)
			m.pages[i] = nil
		}
	}
	*m = Machine{prog: prog, regs: regs, free: m.free, src: src, out: m.out[:0], exc: m.exc[:0], pc: pc}
}

// Watch makes the next load that touches the byte at addr stop the machine
// with WatchTrip instead of executing; a store covering the byte first ends
// the watch.
func (m *Machine) Watch(addr uint64) { m.watch, m.watching = addr, true }

// PC returns the index of the next instruction to execute.
func (m *Machine) PC() int64 { return m.pc }

// Done reports whether the machine has halted or crashed.
func (m *Machine) Done() bool { return m.done }

// Halt returns the halt cause; meaningful only once Done.
func (m *Machine) Halt() HaltReason { return m.halt }

// Regs returns the architectural register file.
func (m *Machine) Regs() [isa.NumArchRegs]uint64 { return m.regs }

// Output returns the committed OUT stream so far (live slice, do not
// mutate).
func (m *Machine) Output() []uint64 { return m.out }

// ExcLog returns the recoverable-exception log so far (live slice, do not
// mutate).
func (m *Machine) ExcLog() []uint32 { return m.exc }

// Steps returns the number of instructions executed.
func (m *Machine) Steps() uint64 { return m.steps }

// LastStore returns the memory write performed by the most recent Step:
// ok is false when that instruction did not store. After a Run of many
// steps it is the run's last store, if any.
func (m *Machine) LastStore() (addr uint64, size uint8, data uint64, ok bool) {
	return m.lastAddr, m.lastSize, m.lastData, m.lastStore
}

// PageData returns the 4KB page at the page-aligned base addr read-only,
// or nil when the run never touched it (on a machine without a PageSource
// it then reads as zeros).
func (m *Machine) PageData(addr uint64) []byte {
	if addr >= isa.MemTop || m.pages[addr>>pageBits] == nil {
		return nil
	}
	return m.pages[addr>>pageBits][:]
}

// Result snapshots the architectural outcome so far. If the machine is
// still running, the halt cause reads StepLimit.
func (m *Machine) Result() Result {
	h := m.halt
	if !m.done {
		h = StepLimit
	}
	return Result{Halt: h, Output: m.out, ExcLog: m.exc, Steps: m.steps}
}

// page returns the page holding addr, which must be mapped (inRange),
// filling it on first touch.
func (m *Machine) page(addr uint64) *[pageSize]byte {
	if p := m.pages[addr>>pageBits]; p != nil {
		return p
	}
	return m.fill(addr)
}

// fill maps the page holding addr, which is not mapped yet.
func (m *Machine) fill(addr uint64) *[pageSize]byte {
	var p *[pageSize]byte
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = new([pageSize]byte)
	}
	if m.src != nil {
		m.src.ComposePage(addr&^(pageSize-1), p[:])
	} else {
		*p = [pageSize]byte{}
	}
	m.pages[addr>>pageBits] = p
	return p
}

// watched reports whether a size-byte load at addr touches the watched
// byte.
func (m *Machine) watched(addr, size uint64) bool {
	return m.watching && m.watch-addr < size
}

// load reads size bytes (1, 2, 4 or 8) at addr, little-endian. An access
// inside one page is one page lookup and one word read; only an access
// across a page edge goes byte by byte.
func (m *Machine) load(addr, size uint64, signed bool) uint64 {
	var v uint64
	if off := addr & (pageSize - 1); off+size <= pageSize {
		b := m.page(addr)[off : off+size]
		switch size {
		case 8:
			v = binary.LittleEndian.Uint64(b)
		case 4:
			v = uint64(binary.LittleEndian.Uint32(b))
		case 2:
			v = uint64(binary.LittleEndian.Uint16(b))
		default:
			v = uint64(b[0])
		}
	} else {
		for i := uint64(0); i < size; i++ {
			a := addr + i
			v |= uint64(m.page(a)[a&(pageSize-1)]) << (8 * i)
		}
	}
	if signed && v&(1<<(size*8-1)) != 0 {
		v |= ^uint64(0) << (size * 8)
	}
	return v
}

func (m *Machine) store(addr, size, v uint64) {
	if m.watched(addr, size) {
		m.watching = false
	}
	if off := addr & (pageSize - 1); off+size <= pageSize {
		b := m.page(addr)[off : off+size]
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(b, v)
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(b, uint16(v))
		default:
			b[0] = byte(v)
		}
	} else {
		for i := uint64(0); i < size; i++ {
			a := addr + i
			m.page(a)[a&(pageSize-1)] = byte(v >> (8 * i))
		}
	}
	m.lastStore, m.lastAddr, m.lastSize, m.lastData = true, addr, uint8(size), v
}

func inRange(addr, size uint64) bool {
	return addr >= isa.DataBase && addr+size <= isa.MemTop && addr+size >= addr
}

// reg reads architectural register r, treating isa.NoReg as zero so that
// fuzz-generated instruction streams cannot index out of range.
func (m *Machine) reg(r int8) uint64 {
	if r < 0 {
		return 0
	}
	return m.regs[r]
}

// setReg writes rd, ignoring isa.NoReg destinations (matching the core,
// which allocates no physical register for them).
func (m *Machine) setReg(rd int8, v uint64) {
	if rd >= 0 {
		m.regs[rd] = v
	}
}

// Step executes one instruction. It returns false once the machine is done
// (halted or crashed); the step that discovers the crash does not count as
// an executed instruction, mirroring the core, where a crashing
// instruction never retires.
func (m *Machine) Step() bool {
	m.Run(m.steps + 1)
	return !m.done
}

// Run executes until the machine is done or has executed maxSteps
// instructions in total. The PC and the step count live in locals for the
// whole loop and are written back once on the way out; a crashing
// instruction leaves the PC on itself and is not counted.
func (m *Machine) Run(maxSteps uint64) {
	if m.done {
		return
	}
	m.lastStore = false
	text, pc, steps := m.prog.Text, m.pc, m.steps
	halt := StepLimit // what Result reports: StepLimit while still running
loop:
	for ; steps < maxSteps; steps++ {
		if uint64(pc) >= uint64(len(text)) {
			halt = CrashBadFetch
			break
		}
		in := &text[pc]
		next := pc + 1
		switch in.Op {
		case isa.ADD:
			m.setReg(in.Rd, m.reg(in.Rs1)+m.reg(in.Rs2))
		case isa.ADDI:
			m.setReg(in.Rd, m.reg(in.Rs1)+uint64(in.Imm))
		case isa.SUB:
			m.setReg(in.Rd, m.reg(in.Rs1)-m.reg(in.Rs2))
		case isa.AND:
			m.setReg(in.Rd, m.reg(in.Rs1)&m.reg(in.Rs2))
		case isa.ANDI:
			m.setReg(in.Rd, m.reg(in.Rs1)&uint64(in.Imm))
		case isa.OR:
			m.setReg(in.Rd, m.reg(in.Rs1)|m.reg(in.Rs2))
		case isa.ORI:
			m.setReg(in.Rd, m.reg(in.Rs1)|uint64(in.Imm))
		case isa.XOR:
			m.setReg(in.Rd, m.reg(in.Rs1)^m.reg(in.Rs2))
		case isa.XORI:
			m.setReg(in.Rd, m.reg(in.Rs1)^uint64(in.Imm))
		case isa.SLL:
			m.setReg(in.Rd, m.reg(in.Rs1)<<(m.reg(in.Rs2)&63))
		case isa.SLLI:
			m.setReg(in.Rd, m.reg(in.Rs1)<<(uint64(in.Imm)&63))
		case isa.SRL:
			m.setReg(in.Rd, m.reg(in.Rs1)>>(m.reg(in.Rs2)&63))
		case isa.SRLI:
			m.setReg(in.Rd, m.reg(in.Rs1)>>(uint64(in.Imm)&63))
		case isa.SRA:
			m.setReg(in.Rd, uint64(int64(m.reg(in.Rs1))>>(m.reg(in.Rs2)&63)))
		case isa.SRAI:
			m.setReg(in.Rd, uint64(int64(m.reg(in.Rs1))>>(uint64(in.Imm)&63)))
		case isa.MUL:
			m.setReg(in.Rd, m.reg(in.Rs1)*m.reg(in.Rs2))
		case isa.MULI:
			m.setReg(in.Rd, m.reg(in.Rs1)*uint64(in.Imm))
		case isa.SLT:
			m.setReg(in.Rd, b2u(int64(m.reg(in.Rs1)) < int64(m.reg(in.Rs2))))
		case isa.SLTI:
			m.setReg(in.Rd, b2u(int64(m.reg(in.Rs1)) < in.Imm))
		case isa.SLTU:
			m.setReg(in.Rd, b2u(m.reg(in.Rs1) < m.reg(in.Rs2)))
		case isa.LI:
			m.setReg(in.Rd, uint64(in.Imm))
		case isa.BEQ:
			if m.reg(in.Rs1) == m.reg(in.Rs2) {
				next = in.Imm
			}
		case isa.BNE:
			if m.reg(in.Rs1) != m.reg(in.Rs2) {
				next = in.Imm
			}
		case isa.BLT:
			if int64(m.reg(in.Rs1)) < int64(m.reg(in.Rs2)) {
				next = in.Imm
			}
		case isa.BGE:
			if int64(m.reg(in.Rs1)) >= int64(m.reg(in.Rs2)) {
				next = in.Imm
			}
		case isa.BLTU:
			if m.reg(in.Rs1) < m.reg(in.Rs2) {
				next = in.Imm
			}
		case isa.BGEU:
			if m.reg(in.Rs1) >= m.reg(in.Rs2) {
				next = in.Imm
			}
		case isa.JAL:
			m.setReg(in.Rd, uint64(next))
			next = in.Imm
		case isa.JALR:
			target := int64(m.reg(in.Rs1)) + in.Imm
			m.setReg(in.Rd, uint64(next))
			next = target
		case isa.LD, isa.LW, isa.LWU, isa.LH, isa.LHU, isa.LB, isa.LBU, isa.LDADD, isa.LDXOR:
			size := uint64(isa.MemSizeOf(in.Op))
			addr := m.reg(in.Rs1) + uint64(in.Imm)
			if !inRange(addr, size) {
				halt = CrashPageFault
				break loop
			}
			if m.watched(addr, size) {
				halt = WatchTrip
				break loop
			}
			if addr&(size-1) != 0 {
				m.exc = append(m.exc, uint32(pc)<<3|1) // ExcMisalign
			}
			v := m.load(addr, size, in.Op == isa.LW || in.Op == isa.LH || in.Op == isa.LB)
			switch in.Op {
			case isa.LDADD:
				v += m.reg(in.Rs2)
			case isa.LDXOR:
				v ^= m.reg(in.Rs2)
			}
			m.setReg(in.Rd, v)
		case isa.SD, isa.SW, isa.SH, isa.SB:
			size := uint64(isa.MemSizeOf(in.Op))
			addr := m.reg(in.Rs1) + uint64(in.Imm)
			if !inRange(addr, size) {
				halt = CrashPageFault
				break loop
			}
			if addr&(size-1) != 0 {
				m.exc = append(m.exc, uint32(pc)<<3|1)
			}
			m.store(addr, size, m.reg(in.Rs2))
		case isa.STADD:
			addr := m.reg(in.Rs1) + uint64(in.Imm)
			if !inRange(addr, 8) {
				halt = CrashPageFault
				break loop
			}
			if m.watched(addr, 8) {
				halt = WatchTrip
				break loop
			}
			if addr&7 != 0 {
				// load µop then STA µop both fault; two log entries.
				m.exc = append(m.exc, uint32(pc)<<3|1, uint32(pc)<<3|1)
			}
			m.store(addr, 8, m.load(addr, 8, false)+m.reg(in.Rs2))
		case isa.DIV, isa.REM:
			s1, s2 := m.reg(in.Rs1), m.reg(in.Rs2)
			if s2 == 0 {
				halt = CrashDivZero
				break loop
			}
			if in.Op == isa.DIV {
				m.setReg(in.Rd, uint64(int64(s1)/int64(s2)))
			} else {
				m.setReg(in.Rd, uint64(int64(s1)%int64(s2)))
			}
		case isa.OUT:
			m.out = append(m.out, m.reg(in.Rs1))
		case isa.HALT:
			halt = HaltOK
			break loop
		}
		pc = next
	}
	m.pc, m.steps = pc, steps
	if halt != StepLimit {
		m.halt, m.done = halt, true
	}
}

// Run executes prog architecturally for at most maxSteps instructions.
func Run(prog *isa.Program, maxSteps uint64) Result {
	m := NewMachine(prog)
	m.Run(maxSteps)
	return m.Result()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
