package cpu

import (
	"math/bits"

	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/mem"
)

// This file reads a running core's committed architectural state — next PC
// to retire, registers, memory image — without changing the core, so that a
// campaign can hand the rest of a faulty run to the architectural
// interpreter and still continue the detailed core if the hand-off cannot
// decide the run. Every function here is a read-only accessor.

// RenameSeq returns the sequence number of the youngest µop renamed so far.
// Captured when a fault is injected, it tells Quiescent which µops were in
// flight at the flip.
func (c *Core) RenameSeq() uint64 { return c.seqGen }

// Quiescent reports whether the committed state is all that is left of the
// run's past, and the PC of the next macro-instruction to retire if so.
// Two things must hold. Every µop renamed at or before injSeq has left the
// ROB: a µop in flight at the flip may hold operands captured before it, a
// destination not yet in the committed map, or store data not yet
// committed. And the oldest in-flight µop is the first of its
// macro-instruction: re-executing a half-retired one would repeat what its
// retired µops already did (a misaligned STADD logs its exception twice).
// The oldest in-flight µop — ROB head, else decode-queue head, else the
// fetch PC — is on the correct path because everything older has committed;
// an invalid-fetch pseudo µop there yields an out-of-range PC, which the
// interpreter crashes on as the core would.
func (c *Core) Quiescent(injSeq uint64) (pc int64, ok bool) {
	if c.halted != Running {
		return 0, false
	}
	uop, rip := int32(badUop), c.fetchPC
	if c.robLen > 0 {
		e := &c.rob[c.robHead]
		if e.seq <= injSeq {
			return 0, false
		}
		uop, rip = e.uop, e.rip
	} else if c.dqHead < c.dqTail {
		pu := &c.decodeQ[c.dqHead&(len(c.decodeQ)-1)]
		uop, rip = pu.uop, pu.rip
	}
	if uop != badUop && c.uops[uop].UPC != 0 {
		return 0, false
	}
	return rip, true
}

// CommittedRegs returns the architectural registers as the committed rename
// map sees the physical file now: the speculative map with every in-flight
// rename undone, youngest first, as a squash would. Unlike ArchRegs, a value
// copy made when each writer committed, it shows a bit flipped in a
// physical register after its writer retired.
func (c *Core) CommittedRegs() [isa.NumArchRegs]uint64 {
	m := c.rat
	for i := c.robLen - 1; i >= 0; i-- {
		if t := &c.rob[ringAdd(c.robHead, i, len(c.rob))]; t.physDest >= 0 && t.archDest >= 0 {
			m[t.archDest] = t.oldPhys
		}
	}
	var regs [isa.NumArchRegs]uint64
	for a, p := range m {
		regs[a] = c.regVal[p]
	}
	return regs
}

// ComposePage fills dst with the committed contents of the data-memory page
// at the page-aligned address base (interp.PageSource): main memory, overlaid
// by the valid L2 lines, then the valid L1D lines, then the committed store
// queue entries in program order. Uncommitted stores are speculative and
// left out. Nothing is flushed or drained and no LRU stamp or
// copy-on-write set is touched.
func (c *Core) ComposePage(base uint64, dst []byte) {
	if p := c.dmem.PageData(base); p != nil {
		copy(dst, p)
	} else {
		clear(dst)
	}
	for _, cache := range [...]*mem.Cache{c.l2, c.l1d} {
		for off := 0; off < len(dst); off += cache.LineSize() {
			if e, hit := cache.Probe(base + uint64(off)); hit {
				copy(dst[off:], cache.PeekEntryData(e))
			}
		}
	}
	for i, slot := 0, c.sqHead; i < c.sqLen && c.sq[slot].committed; i, slot = i+1, ringNext(slot, len(c.sq)) {
		s := &c.sq[slot]
		for b := uint64(0); b < uint64(s.size); b++ {
			if at := s.addr + b - base; at < uint64(len(dst)) {
				dst[at] = byte(s.data >> (8 * b))
			}
		}
	}
}

// UnsettledByte reports whether the byte a fault flipped is held only by a
// line that may still vanish: bit of L1D entry (the coordinates FlipBit
// took) lies in a valid, clean line whose byte differs from the next
// level's. Such a flip is not yet architectural — a clean eviction erases
// it, a hit reads it — so what a later load of addr returns depends on
// timing. Flips in other structures, in dirty or invalid lines, and flips
// an eviction has already erased are settled.
func (c *Core) UnsettledByte(s lifetime.StructureID, entry, bit int) (addr uint64, ok bool) {
	if s != lifetime.StructL1D {
		return 0, false
	}
	line, valid, dirty := c.l1d.EntryLine(entry)
	if !valid || dirty {
		return 0, false
	}
	addr = line + uint64(bit/8)
	var below byte
	if e, hit := c.l2.Probe(addr); hit {
		below = c.l2.PeekEntryData(e)[c.l2.Offset(addr)]
	} else if p := c.dmem.PageData(addr); p != nil {
		below = p[addr&(mem.PageSize-1)]
	}
	return addr, c.l1d.PeekEntryData(entry)[bit/8] != below
}

// PageSet is a set of data-memory pages, one bit per mem.PageSize page
// below isa.MemTop. It holds no pointer, so a Core carries one by value
// and copying it allocates nothing.
type PageSet [isa.MemTop / mem.PageSize / 64]uint64

// Add puts the page holding addr in the set; an address at or above
// isa.MemTop has no page and is ignored.
func (s *PageSet) Add(addr uint64) {
	if p := addr / mem.PageSize; p/64 < uint64(len(s)) {
		s[p/64] |= 1 << (p % 64)
	}
}

// addStore puts the pages a size-byte store at addr writes in the set.
func (s *PageSet) addStore(addr uint64, size uint8) {
	s.Add(addr)
	s.Add(addr + uint64(size) - 1)
}

// All calls f with the base address of every page in the set, ascending,
// until f returns false; it reports whether f never did.
func (s *PageSet) All(f func(base uint64) bool) bool {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			if !f(uint64(w*64+bits.TrailingZeros64(word)) * mem.PageSize) {
				return false
			}
		}
	}
	return true
}

// storeTracker records the pages committed stores wrote since FlipBit
// armed it, as they drain to the data cache.
type storeTracker struct {
	armed bool
	pages PageSet
}

// StoredPages returns the data pages on which a faulty core's committed
// memory image can differ from what the fault-free run made of them: the
// page of the L1D line FlipBit flipped, if valid then, and the pages of
// every store drained since the flip or committed and still queued. Every
// other page holds only what the run stored before the flip, so a
// hand-off's convergence exit compares these pages and those either
// interpreter run mapped, and nothing else. ok is false on a core FlipBit
// never armed.
func (c *Core) StoredPages() (pages PageSet, ok bool) {
	if !c.stored.armed {
		return pages, false
	}
	pages = c.stored.pages
	for i, slot := 0, c.sqHead; i < c.sqLen && c.sq[slot].committed; i, slot = i+1, ringNext(slot, len(c.sq)) {
		pages.addStore(c.sq[slot].addr, c.sq[slot].size)
	}
	return pages, true
}
