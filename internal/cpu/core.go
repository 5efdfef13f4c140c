package cpu

import (
	"fmt"
	"io"
	"math/bits"

	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/mem"
)

// HaltReason describes how a run ended.
type HaltReason uint8

// Run outcomes. The Crash* reasons model the simulated process dying
// (paper Table 2, "Crash": abnormal termination of the simulated program).
const (
	Running        HaltReason = iota
	HaltOK                    // program executed HALT
	CrashPageFault            // committed access outside mapped memory
	CrashBadFetch             // committed control transfer to invalid code
	CrashDivZero              // committed division by zero
	CycleLimit                // exceeded the caller's cycle budget
)

var haltNames = [...]string{"running", "halt", "crash-pagefault", "crash-badfetch", "crash-divzero", "cycle-limit"}

func (h HaltReason) String() string {
	if int(h) < len(haltNames) {
		return haltNames[h]
	}
	return "?"
}

// ExcKind is a precise exception raised at commit.
type ExcKind uint8

// Exceptions. Misaligned accesses are fixed up by the simulated kernel and
// logged (they surface as DUEs when the program output is still correct);
// the others kill the simulated process.
const (
	ExcNone ExcKind = iota
	ExcMisalign
	ExcPageFault
	ExcDivZero
	ExcBadFetch
)

// AssertError is panicked by internal invariant checks; the campaign
// classifies it as the paper's "Assert" outcome.
type AssertError struct{ Msg string }

func (e *AssertError) Error() string { return "cpu assert: " + e.Msg }

func assertf(cond bool, format string, args ...any) {
	if !cond {
		panic(&AssertError{Msg: fmt.Sprintf(format, args...)})
	}
}

type uopState uint8

const (
	stWaiting uopState = iota
	stExecuting
	stDone
)

// uopReads is one ROB slot's row of the tracer-only side table: the Seqs
// the lifetime tracer reserved for the speculative structure reads its
// current occupant has made so far. They become events only if the reader
// commits (squashed reads must not end vulnerable intervals; paper Fig 3).
// Only a traced golden run has the table (AttachTracer allocates it);
// injection clones never carry it.
type uopReads struct {
	n   uint8
	seq [4]uint64
}

// maxROBEntries bounds Config.ROBEntries: the executing bitmap is a fixed
// array and issue-queue records hold the ROB slot in 16 bits.
const maxROBEntries = 1024

// badUop is the static-table index of the invalid-fetch pseudo µop, which
// no program text backs.
const badUop = -1

// robEntry is the dynamic record of one in-flight µop. What the µop is
// lives once, in the program's static µop table (uop indexes it); the
// record holds only what this dynamic instance adds. It contains no
// pointer and no padding (TestRecordLayouts), so cloning the ROB is one
// memmove and comparing two ROBs is one byte comparison.
type robEntry struct {
	seq     uint64
	rip     int64
	doneAt  uint64
	src1Val uint64
	src2Val uint64
	result  uint64

	// Branch bookkeeping.
	predTarget int64
	actTarget  int64
	ghrSnap    uint64

	addr uint64 // memory µops: effective address

	uop int32 // index into the static µop table, or badUop

	physDest int16
	oldPhys  int16
	src1     int16
	src2     int16
	sqSlot   int16
	freeT1   int16 // temp physical registers to release at commit
	freeT2   int16

	archDest int8
	kind     isa.UopKind // the static µop's Kind (UopNop for the pseudo µop)
	state    uopState
	exc      ExcKind
	last     bool // final µop of its macro-instruction
	actTaken bool
}

// Functional-unit classes, indexing the per-cycle unit budget of issueStage.
const (
	fuALU uint16 = iota // also address generation, branches and OUT
	fuMul
	fuLoad
	fuStore
	numFU
	fuNone = numFU // never issues
)

// iqEntry is a waiting µop as the issue stage sees it: everything the
// select loop needs to decide "not this cycle" without touching the µop's
// ROB slot. It repeats what rob[slot] and the static table already say
// (checkDerived in the tests rebuilds it from them), and like robEntry it
// has no padding.
type iqEntry struct {
	slot int16 // ROB slot
	src1 int16
	src2 int16
	fu   uint16
}

type sqEntry struct {
	valid  bool
	seq    uint64
	addr   uint64
	size   uint8
	addrOK bool
	dataOK bool
	data   uint64 // the injected "data field of the store queue" (§4.1)

	// Post-commit drain state: a committed store occupies its slot until
	// the data-cache write completes (one drain port, in order), which is
	// when the SQ data field is finally read.
	committed bool
	drainRIP  int64
	drainUPC  uint8
	drainSeq  uint64
}

// pendingUop is a fetched µop waiting in the decode queue: which static µop
// it is, and the branch prediction made for it at fetch. Like robEntry it
// has no pointer and no padding.
type pendingUop struct {
	rip int64

	// Branch prediction made at fetch.
	predTarget int64
	ghrSnap    uint64

	uop int32 // index into the static µop table, or badUop
	end int32 // one past the last µop of the same macro-instruction (0 with badUop)
}

// Stats counts pipeline activity over a run.
type Stats struct {
	Cycles         uint64
	CommittedInsts uint64
	CommittedUops  uint64
	Branches       uint64
	Mispredicts    uint64
	Loads          uint64
	Stores         uint64
	SQForwards     uint64
	SquashedUops   uint64
	L1DStats       mem.CacheStats
	L1IStats       mem.CacheStats
	L2Stats        mem.CacheStats
}

// RunResult is the architectural outcome of a run: everything the campaign
// needs to classify a fault's effect.
type RunResult struct {
	Halt   HaltReason
	Cycles uint64
	Output []uint64 // committed OUT values, in order
	ExcLog []uint32 // committed recoverable exceptions (kind | rip<<3)
	Stats  Stats
}

// Core is one instance of the simulated machine. It is single-goroutine;
// campaigns parallelise by running independent Cores.
type Core struct {
	Cfg  Config
	prog *isa.Program
	// The program's static µop table, owned by prog and immutable: the
	// µops of Text[rip] are uops[uopFirst[rip]:uopFirst[rip+1]].
	uops     []isa.Uop
	uopFirst []int32

	dmem *mem.Memory
	imem *mem.Memory
	l1i  *mem.Cache
	l1d  *mem.Cache
	l2   *mem.Cache

	cycle  uint64
	seqGen uint64
	halted HaltReason

	// Physical register file (the injected RF) and rename state.
	regVal   []uint64
	regReady []bool
	rat      [isa.NumArchRegs]int16
	freeList []int16

	rob     []robEntry
	robHead int
	robLen  int
	// executing is a bitmap over ROB slots: the µops that have issued and
	// not yet written back, so writeback visits only those. Walked from
	// robHead in ring order it is age order. Derived from rob[i].state. It
	// is an array inside the Core, not a slice: a 16-byte allocation of its
	// own would share a cache line with those of the cores other workers
	// are stepping, and every cycle writes it.
	executing [maxROBEntries / 64]uint64

	iq []iqEntry // waiting µops, program order

	sq             []sqEntry
	sqHead         int
	sqLen          int
	lqLen          int
	drainBusyUntil uint64

	// Frontend.
	fetchPC      int64
	fetchHalted  bool
	fetchReadyAt uint64
	chargedLine  int64
	// The decode queue is a fixed ring of power-of-two length. dqHead and
	// dqTail count the µops renamed and fetched since the queue last
	// emptied (or was squashed); µop n of that count sits in slot
	// n & (len-1).
	decodeQ []pendingUop
	dqHead  int
	dqTail  int
	pred    *predictor

	// Rename scratch: temps of the macro-instruction being renamed.
	curTemps     [2]int16
	tempAcc      [2]int16
	curTempCount int
	lastSQ       int16

	output         []uint64
	excLog         []uint32
	committedInsts uint64
	committedUops  uint64
	lastCommitAt   uint64

	// archRegs is the committed (retirement) architectural register file,
	// updated as µops retire: a copy of the value each register's last
	// committed writer produced, kept so retire-boundary witnesses and
	// ArchRegs cost one array copy instead of a RAT walk. On a fault-free
	// core it equals regVal at the committed mapping; a bit flipped in a
	// physical register after its writer retired shows only there
	// (CommittedRegs).
	archRegs [isa.NumArchRegs]uint64

	// witness and mutate are observation/test hooks (SetRetireWitness,
	// SetResultMutator); they are not machine state and are not cloned.
	witness func(RetireEvent)
	mutate  func(seq uint64, op isa.Op, result uint64) uint64

	tracer *lifetime.Tracer
	reads  []uopReads // per ROB slot, allocated by AttachTracer
	traceW io.Writer
	stats  Stats
}

// New builds a core for prog with the given configuration. The program's
// data segment is loaded at isa.DataBase and the stack pointer initialised
// to isa.StackTop.
func New(cfg Config, prog *isa.Program) *Core {
	assertf(cfg.PhysRegs > isa.NumArchRegs, "PhysRegs %d must exceed %d architectural registers", cfg.PhysRegs, isa.NumArchRegs)
	assertf(cfg.ROBEntries <= maxROBEntries, "ROBEntries %d exceeds the %d slots the executing bitmap covers", cfg.ROBEntries, maxROBEntries)
	c := &Core{
		Cfg:  cfg,
		prog: prog,
		dmem: mem.NewMemory(isa.DataBase, isa.MemTop, cfg.MemLatency),
		imem: mem.NewMemory(0, uint64(len(prog.Text)+1)*8, cfg.MemLatency),

		regVal:   make([]uint64, cfg.PhysRegs),
		regReady: make([]bool, cfg.PhysRegs),
		rob:      make([]robEntry, cfg.ROBEntries),
		sq:       make([]sqEntry, cfg.SQEntries),
		iq:       make([]iqEntry, 0, cfg.IQEntries),
		decodeQ:  make([]pendingUop, 1<<bits.Len(uint(cfg.DecodeQCap-1))),

		fetchPC:     int64(prog.Entry),
		chargedLine: -1,
		lastSQ:      -1,
		pred:        newPredictor(cfg),
	}
	c.uops, c.uopFirst = prog.Uops()
	c.l2 = mem.NewCache(cfg.L2, c.dmem)
	c.l1d = mem.NewCache(cfg.L1D, c.l2)
	c.l1i = mem.NewCache(cfg.L1I, c.imem)

	c.dmem.WriteBytes(isa.DataBase, prog.Data)
	for i := 0; i < isa.NumArchRegs; i++ {
		c.rat[i] = int16(i)
		c.regReady[i] = true
	}
	c.regVal[isa.RegSP] = isa.StackTop
	c.archRegs[isa.RegSP] = isa.StackTop
	c.freeList = make([]int16, 0, cfg.PhysRegs)
	for p := cfg.PhysRegs - 1; p >= isa.NumArchRegs; p-- {
		c.freeList = append(c.freeList, int16(p))
	}
	return c
}

// AttachTracer enables lifetime tracking for the golden ACE-like run. The
// initial architectural register values count as cycle-0 writes.
func (c *Core) AttachTracer(t *lifetime.Tracer) {
	assertf(c.cycle == 0, "AttachTracer after the run started")
	c.tracer = t
	t.Attach(c.Cfg.StructureGeometry)
	c.reads = make([]uopReads, len(c.rob))
	// The L1D fill/evict hooks only ever feed the tracer, so only a traced
	// core has them.
	c.l1d.OnFill = func(set, way int, cycle uint64) {
		c.emitL1D(lifetime.EvWrite, set, way, ^uint64(0))
	}
	c.l1d.OnEvict = func(set, way int, kind mem.EvictKind, cycle uint64) {
		if kind == mem.EvictDirty {
			c.emitL1D(lifetime.EvWBRead, set, way, ^uint64(0))
		} else {
			c.emitL1D(lifetime.EvInvalidate, set, way, ^uint64(0))
		}
	}
	for p := 0; p < isa.NumArchRegs; p++ {
		c.emitWrite(lifetime.StructRF, int32(p), 0xff, lifetime.InitRip, 0)
	}
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Halted returns the current halt state.
func (c *Core) Halted() HaltReason { return c.halted }

// Step advances the machine one cycle. Stages run in reverse pipeline
// order so same-cycle structural effects flow oldest-first.
func (c *Core) Step() {
	if c.halted != Running {
		return
	}
	c.cycle++
	c.drainStage()
	c.commitStage()
	if c.halted != Running {
		return
	}
	c.writebackStage()
	c.issueStage()
	c.renameStage()
	c.fetchStage()
	if c.cycle-c.lastCommitAt > c.Cfg.CommitWatchdog {
		assertf(false, "commit starvation: no commit since cycle %d", c.lastCommitAt)
	}
}

// Run executes until the program halts, crashes, or maxCycles elapses.
func (c *Core) Run(maxCycles uint64) RunResult {
	for c.halted == Running && c.cycle < maxCycles {
		c.Step()
	}
	if c.halted == Running {
		c.halted = CycleLimit
	}
	return c.Result()
}

// Result snapshots the architectural outcome so far.
func (c *Core) Result() RunResult {
	s := c.stats
	s.Cycles = c.cycle
	s.CommittedInsts = c.committedInsts
	s.CommittedUops = c.committedUops
	s.L1DStats = c.l1d.Stats
	s.L1IStats = c.l1i.Stats
	s.L2Stats = c.l2.Stats
	if c.tracer != nil {
		c.tracer.Cycles = c.cycle
	}
	return RunResult{Halt: c.halted, Cycles: c.cycle, Output: c.output, ExcLog: c.excLog, Stats: s}
}

// StructureEntries returns how many injectable entries structure s has
// under this core's configuration.
func (c *Core) StructureEntries(s lifetime.StructureID) int {
	entries, _ := c.Cfg.StructureGeometry(s)
	return entries
}

// StructureEntryBits returns the entry width in bits of structure s.
func (c *Core) StructureEntryBits(s lifetime.StructureID) int {
	_, entryBits := c.Cfg.StructureGeometry(s)
	return entryBits
}

// FlipBit injects a single-bit transient fault into structure s: entry
// selects the physical slot (register, SQ slot, or cache (set,way) line)
// and bit the flipped bit. The flip lands in the physical storage
// regardless of the slot's current architectural meaning, exactly like a
// particle strike.
func (c *Core) FlipBit(s lifetime.StructureID, entry, bit int) {
	switch s {
	case lifetime.StructRF:
		c.regVal[entry] ^= 1 << uint(bit)
	case lifetime.StructSQ:
		c.sq[entry].data ^= 1 << uint(bit)
	case lifetime.StructL1D:
		c.l1d.FlipBit(entry, bit)
	default:
		assertf(false, "FlipBit: unknown structure %d", s)
	}
}

// FlushDataCaches writes all dirty cached data back to memory without
// emitting lifetime events (used for end-state comparison of truncated
// runs, Table 4).
func (c *Core) FlushDataCaches() {
	evict, fill := c.l1d.OnEvict, c.l1d.OnFill
	c.l1d.OnEvict, c.l1d.OnFill = nil, nil
	c.l1d.FlushAll(c.cycle)
	c.l2.FlushAll(c.cycle)
	c.l1d.OnEvict, c.l1d.OnFill = evict, fill
}

// fnvPrime is the 64-bit FNV-1a prime; fnvZeroPageMul is the effect of
// hashing one full page of zero bytes: each zero byte XORs in nothing and
// multiplies the state by the prime, so a whole zero page is a single
// multiplication by prime^PageSize (mod 2^64). StateHash uses it to skip
// unmapped pages without changing the digest.
const fnvPrime = 1099511628211

var fnvZeroPageMul = func() uint64 {
	m := uint64(1)
	for i := 0; i < mem.PageSize; i++ {
		m *= fnvPrime
	}
	return m
}()

// StateHash returns a deterministic FNV-1a digest of the architecturally
// reachable state: mapped data memory (call FlushDataCaches first), the
// architectural registers, resident cache lines, and valid store-queue
// data. Table 4's truncated-run classification compares it against the
// golden run at the same cut cycle: equal means the fault vanished
// (Masked), different means it is still live (Unknown).
//
// Resident memory pages are hashed in place and unmapped (all-zero) pages
// folded in with one precomputed multiplication, so the walk over
// [DataBase, MemTop) costs O(resident bytes) instead of O(address space);
// the digest is bit-identical to hashing the zero-filled range byte by
// byte (pinned by TestStateHashPinned).
func (c *Core) StateHash() uint64 {
	h := uint64(14695981039346656037)
	byteIn := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
	u64In := func(v uint64) {
		for i := 0; i < 8; i++ {
			byteIn(byte(v >> (8 * i)))
		}
	}
	if isa.DataBase%mem.PageSize == 0 && isa.MemTop%mem.PageSize == 0 {
		for addr := uint64(isa.DataBase); addr < isa.MemTop; addr += mem.PageSize {
			p := c.dmem.PageData(addr)
			if p == nil {
				h *= fnvZeroPageMul
				continue
			}
			for _, b := range p {
				byteIn(b)
			}
		}
	} else { // unaligned mapping: generic chunked walk
		buf := make([]byte, mem.PageSize)
		for addr := uint64(isa.DataBase); addr < isa.MemTop; addr += uint64(len(buf)) {
			c.dmem.ReadBytes(addr, buf)
			for _, b := range buf {
				byteIn(b)
			}
		}
	}
	for a := 0; a < isa.NumArchRegs; a++ {
		u64In(c.regVal[c.rat[a]])
	}
	for _, cache := range []*mem.Cache{c.l1d, c.l2} {
		for e := 0; e < cache.Entries(); e++ {
			if !cache.Valid(e) {
				continue
			}
			u64In(uint64(e))
			for _, b := range cache.PeekEntryData(e) {
				byteIn(b)
			}
		}
	}
	for i, slot := 0, c.sqHead; i < c.sqLen; i, slot = i+1, ringNext(slot, len(c.sq)) {
		if s := &c.sq[slot]; s.dataOK {
			u64In(s.data)
		}
	}
	return h
}

// --- lifetime event plumbing ---

// emit hands an event of the current cycle to the tracer of a traced core.
// It is kept out of line so that its callers, which an untraced core
// reaches on every µop, stay small enough to inline.
//
//go:noinline
func (c *Core) emit(s lifetime.StructureID, kind lifetime.EventKind, entry int32, mask uint64, rip int32, upc uint8) {
	c.tracer.Emit(s, lifetime.Event{Cycle: c.cycle, Entry: entry, Mask: mask, Kind: kind, RIP: rip, UPC: upc})
}

// emitWrite records a write event stamped with the producing µop's static
// location (rip, upc), so the guestflow cross-check and static pre-pruner
// can reason about which architectural value a physical entry holds.
func (c *Core) emitWrite(s lifetime.StructureID, entry int32, mask uint64, rip int32, upc uint8) {
	if c.tracer != nil {
		c.emit(s, lifetime.EvWrite, entry, mask, rip, upc)
	}
}

func (c *Core) emitL1D(kind lifetime.EventKind, set, way int, mask uint64) {
	rip := int32(0)
	if kind == lifetime.EvWBRead {
		rip = lifetime.WBRip
	}
	c.emit(lifetime.StructL1D, kind, int32(set*c.l1d.Cfg.Ways+way), mask, rip, 0)
}

// emitInvalidate records that an entry's contents left the structure
// unread: a freed physical register (no future µop can read it before the
// next producer overwrites it) or a drained / squashed store-queue slot.
// Without these events, truncated-run analysis (Table 4) would treat dead
// storage as live at the cut.
func (c *Core) emitInvalidate(s lifetime.StructureID, entry int32, mask uint64) {
	if c.tracer != nil {
		c.emit(s, lifetime.EvInvalidate, entry, mask, 0, 0)
	}
}

// freePhys returns a physical register to the free list, closing its
// lifetime.
func (c *Core) freePhys(p int16) {
	c.freeList = append(c.freeList, p)
	if c.tracer != nil {
		c.emit(lifetime.StructRF, lifetime.EvInvalidate, int32(p), 0xff, 0, 0)
	}
}

// pendRead reserves a structure read against the reading µop's ROB slot; it
// becomes an event at commit and is dropped on squash.
func (c *Core) pendRead(slot int, s lifetime.StructureID, entry int32, mask uint64) {
	if c.tracer == nil {
		return
	}
	seq := c.tracer.Reserve(s, c.cycle, entry, mask)
	if seq == 0 {
		return
	}
	pr := &c.reads[slot]
	assertf(int(pr.n) < len(pr.seq), "too many pending reads on one µop")
	pr.seq[pr.n] = seq
	pr.n++
}

// flushReads publishes the reads of the µop committing from slot of a
// traced core.
func (c *Core) flushReads(slot int, e *robEntry) {
	pr := &c.reads[slot]
	for _, seq := range pr.seq[:pr.n] {
		c.tracer.Commit(seq, e.seq, int32(e.rip), c.uops[e.uop].UPC)
	}
}

// dropReads forgets the reads of the µop squashed out of slot of a traced
// core.
func (c *Core) dropReads(slot int) {
	pr := &c.reads[slot]
	for _, seq := range pr.seq[:pr.n] {
		c.tracer.Drop(seq)
	}
}

// ringNext and ringAdd step an index around a ring of n slots by compare
// instead of by division (n is a configuration value, rarely a power of
// two). ringAdd requires 0 <= k <= n.
func ringNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

func ringAdd(i, k, n int) int {
	if i += k; i >= n {
		i -= n
	}
	return i
}

// SetCommitTrace streams one line per committed macro-instruction to w:
// cycle, sequence number, RIP and disassembly. Intended for debugging
// workloads and the pipeline itself (merlin run -trace); unset (nil) in
// campaigns.
func (c *Core) SetCommitTrace(w io.Writer) { c.traceW = w }

func (c *Core) traceCommit(e *robEntry) {
	if !e.last {
		return
	}
	fmt.Fprintf(c.traceW, "%8d  #%-6d %4d: %s\n", c.cycle, e.seq, e.rip, c.prog.Text[e.rip])
}
