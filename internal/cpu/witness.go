package cpu

import "merlin/internal/isa"

// RetireEvent describes one macro-instruction leaving the pipeline: the
// committed architectural register file after the instruction's effects,
// plus the instruction's memory/output side effects. It is the
// state-witness the conformance engine diffs against the architectural
// reference interpreter at every retire boundary — not just at halt — so
// a wrong value is caught at the instruction that produced it, with the
// retiring PC, instead of surfacing thousands of instructions later as a
// bad output stream.
type RetireEvent struct {
	Seq  uint64   // global µop sequence number of the final µop
	RIP  int64    // macro-instruction index that retired
	Inst isa.Inst // the retired instruction

	// Regs is the committed architectural register file after this
	// instruction retired (the retirement RAT view, not the speculative
	// rename table).
	Regs [isa.NumArchRegs]uint64

	// Store effect: set when the instruction wrote memory (SD/SW/SH/SB/
	// STADD), captured from the store-queue entry at STD commit.
	HasStore  bool
	StoreAddr uint64
	StoreSize uint8
	StoreData uint64

	// Output effect: set when the instruction was an OUT.
	HasOut bool
	Out    uint64

	// Architectural log lengths after this retire, for incremental
	// comparison of the output stream and exception log.
	OutputLen int
	ExcLogLen int
}

// SetRetireWitness installs a hook called once per retired
// macro-instruction, at the retire boundary, with the committed
// architectural state. HALT and crashing instructions do not retire and
// are not witnessed. The hook must not mutate the core. Clones do not
// inherit the witness (like the lifetime tracer, it is an observation
// harness, not machine state). Pass nil to detach.
func (c *Core) SetRetireWitness(fn func(RetireEvent)) { c.witness = fn }

// SetResultMutator installs a test-only corruption hook applied to every
// µop result at execute. The conformance suite uses it to emulate a buggy
// core — a silent ALU error the lockstep oracle must catch — and campaign
// code never sets it. Clones do not inherit it. Pass nil to remove.
func (c *Core) SetResultMutator(fn func(seq uint64, op isa.Op, result uint64) uint64) {
	c.mutate = fn
}

// ArchRegs returns the committed architectural register file: the value
// each architectural register held after the most recent instruction to
// write it retired. Unlike the rename-table view, it is unaffected by
// in-flight speculation.
func (c *Core) ArchRegs() [isa.NumArchRegs]uint64 { return c.archRegs }

// Output returns the committed OUT stream so far. The slice is live;
// callers must not mutate it.
func (c *Core) Output() []uint64 { return c.output }

// CommittedInsts returns the number of macro-instructions retired so far
// (HALT is not counted).
func (c *Core) CommittedInsts() uint64 { return c.committedInsts }

// ExcLog returns the committed recoverable-exception log so far. The
// slice is live; callers must not mutate it.
func (c *Core) ExcLog() []uint32 { return c.excLog }

// DrainPendingStores writes every committed-but-undrained store queue
// entry to the data cache immediately, ignoring drain-port timing. After
// a clean halt the SQ holds only committed stores awaiting the single
// drain port; conformance runs call this (followed by FlushDataCaches)
// before diffing memory against the reference interpreter. Campaigns
// never call it — timing-accurate draining is part of what they measure.
func (c *Core) DrainPendingStores() {
	for c.sqLen > 0 {
		s := &c.sq[c.sqHead]
		if !s.committed {
			break
		}
		c.dcacheWrite(s.addr, s.size, s.data, int32(s.drainRIP), s.drainUPC)
		s.valid, s.addrOK, s.dataOK, s.committed = false, false, false, false
		c.sqHead = ringNext(c.sqHead, len(c.sq))
		c.sqLen--
	}
}

// PageData exposes the 4KB page of simulated main memory backing addr
// read-only (nil when the page was never written). Conformance memory
// diffs walk resident pages instead of the whole address space; call
// DrainPendingStores and FlushDataCaches first so the memory image is
// architecturally complete.
func (c *Core) PageData(addr uint64) []byte { return c.dmem.PageData(addr) }
