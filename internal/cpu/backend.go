package cpu

import (
	"math/bits"

	"merlin/internal/isa"
	"merlin/internal/lifetime"
)

// issueStage selects ready µops oldest-first up to the issue width and
// functional-unit limits and begins their execution. Operand values are
// captured (and their register-file reads recorded) at issue. A µop that
// cannot go this cycle is decided from its issue-queue record alone.
func (c *Core) issueStage() {
	free := [numFU]int{fuALU: c.Cfg.IntALUs, fuMul: c.Cfg.IntMulDiv, fuLoad: c.Cfg.LoadPorts, fuStore: c.Cfg.StorePorts}
	iq, ready, width := c.iq, c.regReady, c.Cfg.IssueWidth
	issued, kept := 0, 0
	for i, q := range iq {
		if issued < width &&
			(q.src1 < 0 || ready[q.src1]) && (q.src2 < 0 || ready[q.src2]) &&
			free[q.fu] > 0 && !(q.fu == fuLoad && c.loadBlocked(&c.rob[q.slot])) {
			free[q.fu]--
			issued++
			c.execute(int(q.slot))
			continue
		}
		if kept != i {
			iq[kept] = q
		}
		kept++
	}
	c.iq = iq[:kept]
}

// fuOf maps a µop kind to the functional unit it occupies; fuNone marks
// the kinds that never issue (they are done as soon as they are renamed).
var fuOf = [...]uint16{
	isa.UopALU: fuALU, isa.UopBr: fuALU, isa.UopJmp: fuALU, isa.UopOut: fuALU, isa.UopSTA: fuALU,
	isa.UopMul:  fuMul,
	isa.UopLoad: fuLoad,
	isa.UopSTD:  fuStore,
	isa.UopHalt: fuNone, isa.UopNop: fuNone,
}

// loadBlocked resolves memory disambiguation for a load about to issue.
// It computes the effective address, and reports true when the load must
// wait: an older store's address is still unknown, or an older overlapping
// store cannot fully forward yet. On false, e.addr holds the address and
// e.sqSlot the forwarding SQ slot (or -1 for a cache access).
func (c *Core) loadBlocked(e *robEntry) bool {
	var s1 uint64
	if e.src1 >= 0 {
		s1 = c.regVal[e.src1]
		if e.src1+1 == c.watch.reg {
			c.watch = watch{end: WatchRead}
		}
	}
	u := &c.uops[e.uop]
	addr := s1 + uint64(u.Imm)
	e.addr = addr
	e.sqSlot = -1
	if !c.dmem.InRange(addr, int(u.MemSize)) {
		return false // faults at commit; nothing to disambiguate
	}
	size := uint64(u.MemSize)
	var bestSeq uint64
	fwd := int16(-1)
	for i, slot := 0, c.sqHead; i < c.sqLen; i, slot = i+1, ringNext(slot, len(c.sq)) {
		s := &c.sq[slot]
		if s.seq >= e.seq {
			break // SQ is in program order: the rest are younger
		}
		if !s.addrOK {
			return true // conservative: unknown older store address
		}
		if s.addr+uint64(s.size) <= addr || addr+size <= s.addr {
			continue
		}
		bestSeq = s.seq
		if s.addr <= addr && addr+size <= s.addr+uint64(s.size) && s.dataOK {
			fwd = int16(slot)
		} else {
			fwd = -1 // partial overlap or data not yet captured
		}
	}
	if bestSeq != 0 && fwd < 0 {
		return true // wait until the store drains or its data arrives
	}
	e.sqSlot = fwd
	return false
}

// execute captures the operands of the µop in ROB slot idx, computes its
// result and schedules its completion. Loads access the cache (or forward
// from the SQ) here; the cycle of these reads is the cycle the stored bits
// are consumed, which is what the vulnerable-interval analysis records.
func (c *Core) execute(idx int) {
	e := &c.rob[idx]
	e.state = stExecuting
	c.executing[idx>>6] |= 1 << (uint(idx) & 63)
	traced := c.tracer != nil // pendRead is a real call; an injection run skips it
	if e.src1 >= 0 {
		e.src1Val = c.regVal[e.src1]
		if traced {
			c.pendRead(idx, lifetime.StructRF, int32(e.src1), 0xff)
		}
	}
	if e.src2 >= 0 {
		e.src2Val = c.regVal[e.src2]
		if traced {
			c.pendRead(idx, lifetime.StructRF, int32(e.src2), 0xff)
		}
	}
	if w := c.watch.reg - 1; w >= 0 && (e.src1 == w || e.src2 == w) {
		c.watch = watch{end: WatchRead}
	}
	u := &c.uops[e.uop]
	switch u.Kind {
	case isa.UopALU:
		e.result = aluResult(u.Op, e.src1Val, e.src2Val, u.Imm)
		e.doneAt = c.cycle + 1
	case isa.UopMul:
		lat := c.Cfg.MulLatency
		if u.Op == isa.DIV || u.Op == isa.REM {
			lat = c.Cfg.DivLatency
			if e.src2Val == 0 {
				e.exc = ExcDivZero
				e.result = 0
			} else if u.Op == isa.DIV {
				e.result = uint64(int64(e.src1Val) / int64(e.src2Val))
			} else {
				e.result = uint64(int64(e.src1Val) % int64(e.src2Val))
			}
		} else {
			e.result = aluResult(u.Op, e.src1Val, e.src2Val, u.Imm)
		}
		e.doneAt = c.cycle + uint64(lat)
	case isa.UopOut:
		e.result = e.src1Val
		e.doneAt = c.cycle + 1
	case isa.UopBr:
		c.stats.Branches++
		if u.Op == isa.JAL {
			e.actTaken = true
			e.actTarget = u.Imm
		} else {
			e.actTaken = condTaken(u.Op, e.src1Val, e.src2Val)
			if e.actTaken {
				e.actTarget = u.Imm
			} else {
				e.actTarget = e.rip + 1
			}
		}
		e.result = uint64(e.rip + 1) // link value (JAL with a destination)
		e.doneAt = c.cycle + 1
	case isa.UopJmp:
		c.stats.Branches++
		e.actTaken = true
		e.actTarget = int64(e.src1Val) + u.Imm
		e.result = uint64(e.rip + 1)
		e.doneAt = c.cycle + 1
	case isa.UopSTA:
		addr := e.src1Val + uint64(u.Imm)
		e.addr = addr
		if !c.dmem.InRange(addr, int(u.MemSize)) {
			e.exc = ExcPageFault
		} else if misaligned(addr, u.MemSize) {
			e.exc = ExcMisalign
		}
		e.doneAt = c.cycle + 1
	case isa.UopSTD:
		e.result = e.src1Val
		e.doneAt = c.cycle + 1
	case isa.UopLoad:
		c.stats.Loads++
		addr, size := e.addr, u.MemSize
		switch {
		case !c.dmem.InRange(addr, int(size)):
			e.exc = ExcPageFault
			e.result = 0
			e.doneAt = c.cycle + 2
		case e.sqSlot >= 0: // store-to-load forwarding
			if misaligned(addr, size) {
				e.exc = ExcMisalign // kernel fixup, architecturally visible
			}
			c.stats.SQForwards++
			s := &c.sq[e.sqSlot]
			d := addr - s.addr
			e.result = extend(s.data>>(8*d), size, u.Signed)
			if e.sqSlot+1 == c.watch.sq {
				c.watch = watch{end: WatchRead}
			}
			c.pendRead(idx, lifetime.StructSQ, int32(e.sqSlot), maskRange(int(d), int(size)))
			e.doneAt = c.cycle + 2
		default:
			if misaligned(addr, size) {
				e.exc = ExcMisalign // simulated kernel fixes it up below
			}
			v, lat := c.dcacheRead(idx, addr, size)
			e.result = extend(v, size, u.Signed)
			e.doneAt = c.cycle + 1 + uint64(lat)
		}
	default:
		assertf(false, "executing µop kind %d", u.Kind)
	}
	if c.mutate != nil {
		e.result = c.mutate(e.seq, u.Op, e.result)
	}
}

// writebackStage publishes completed results to the physical register file
// and store queue, wakes dependants, and resolves branches. It visits only
// the executing µops, oldest first: ring order from robHead is age order,
// so the walk starts with the head word's slots at and above robHead, goes
// round the bitmap, and ends with the head word's slots below robHead. The
// oldest mispredicted branch completing this cycle squashes everything
// younger, which ends the stage: older µops were already visited.
func (c *Core) writebackStage() {
	words := c.executing[:(len(c.rob)+63)>>6]
	w, below := c.robHead>>6, uint64(1)<<(uint(c.robHead)&63)-1
	for k := 0; k <= len(words); k++ {
		m := words[w]
		if k == 0 {
			m &^= below
		} else if k == len(words) {
			m &= below
		}
		for ; m != 0; m &= m - 1 {
			idx := w<<6 + bits.TrailingZeros64(m)
			if c.rob[idx].doneAt <= c.cycle && !c.complete(idx) {
				return
			}
		}
		w = ringNext(w, len(words))
	}
}

// complete writes back the µop in ROB slot idx. It reports false when the
// µop was a mispredicted branch: everything younger has been squashed and
// fetch redirected.
func (c *Core) complete(idx int) bool {
	e := &c.rob[idx]
	e.state = stDone
	c.executing[idx>>6] &^= 1 << (uint(idx) & 63)
	if e.physDest >= 0 {
		c.regVal[e.physDest] = e.result
		c.regReady[e.physDest] = true
		if e.physDest+1 == c.watch.reg {
			c.watch = watch{end: WatchMasked}
		}
		if c.tracer != nil {
			c.emitWrite(lifetime.StructRF, int32(e.physDest), 0xff, int32(e.rip), c.uops[e.uop].UPC)
		}
	}
	switch e.kind {
	case isa.UopSTA:
		s := &c.sq[e.sqSlot]
		assertf(s.valid, "STA writeback to invalid SQ slot")
		s.addr = e.addr
		s.addrOK = true
	case isa.UopSTD:
		s := &c.sq[e.sqSlot]
		assertf(s.valid, "STD writeback to invalid SQ slot")
		s.data = e.result
		s.dataOK = true
		if e.sqSlot+1 == c.watch.sq {
			c.watch = watch{end: WatchMasked}
		}
		if c.tracer != nil {
			c.emitWrite(lifetime.StructSQ, int32(e.sqSlot), maskRange(0, int(s.size)), int32(e.rip), c.uops[e.uop].UPC)
		}
	case isa.UopBr, isa.UopJmp:
		if e.actTarget != e.predTarget {
			c.stats.Mispredicts++
			if isa.IsCondBranch(c.uops[e.uop].Op) {
				c.pred.repair(e.ghrSnap, e.actTaken)
			}
			c.squashYounger(e.seq)
			c.redirect(e.actTarget)
			return false
		}
	}
	return true
}

// redirect restarts fetch at target on the next cycle.
func (c *Core) redirect(target int64) {
	c.fetchPC = target
	c.fetchHalted = false
	c.chargedLine = -1
	c.fetchReadyAt = c.cycle + 1
}

// squashYounger removes every µop younger than seq, undoing renaming (in
// reverse order), LSQ allocation, and issue-queue, executing-set and
// decode-queue residency. Their pending structure reads die with them:
// squashed reads never end vulnerable intervals.
func (c *Core) squashYounger(seq uint64) {
	for c.robLen > 0 {
		tIdx := ringAdd(c.robHead, c.robLen-1, len(c.rob))
		t := &c.rob[tIdx]
		if t.seq <= seq {
			break
		}
		if t.physDest >= 0 {
			if t.archDest >= 0 {
				c.rat[t.archDest] = t.oldPhys
			}
			c.freePhys(t.physDest)
		}
		switch t.kind {
		case isa.UopLoad:
			c.lqLen--
		case isa.UopSTA:
			tail := ringAdd(c.sqHead, c.sqLen-1, len(c.sq))
			assertf(int16(tail) == t.sqSlot, "SQ rollback out of order: tail %d, slot %d", tail, t.sqSlot)
			s := &c.sq[tail]
			s.valid, s.addrOK, s.dataOK = false, false, false
			c.emitInvalidate(lifetime.StructSQ, int32(tail), 0xff)
			c.watch.freed = c.watch.freed || tail+1 == int(c.watch.sq)
			c.sqLen--
		}
		if c.reads != nil {
			c.dropReads(tIdx)
		}
		c.executing[tIdx>>6] &^= 1 << (uint(tIdx) & 63)
		c.stats.SquashedUops++
		c.robLen--
	}
	kept := c.iq[:0]
	for _, q := range c.iq {
		if e := &c.rob[q.slot]; e.seq <= seq && e.state == stWaiting {
			kept = append(kept, q)
		}
	}
	c.iq = kept
	c.dqHead, c.dqTail = 0, 0
	c.curTempCount = 0
	c.lastSQ = -1
}

// dcacheRead reads size bytes at addr through the L1D, splitting at line
// boundaries (misaligned accesses after kernel fixup), recording the byte
// positions read against the consuming µop's ROB slot, and returning the
// little-endian value and total latency.
func (c *Core) dcacheRead(slot int, addr uint64, size uint8) (uint64, int) {
	var val uint64
	shift, lat := 0, 0
	remaining := int(size)
	for remaining > 0 {
		off := c.l1d.Offset(addr)
		n := min(remaining, c.l1d.LineSize()-off)
		entry, l := c.l1d.Access(addr, n, false, c.cycle)
		lat += l
		data := c.l1d.PeekEntryData(entry)
		for i := 0; i < n; i++ {
			val |= uint64(data[off+i]) << shift
			shift += 8
		}
		c.pendRead(slot, lifetime.StructL1D, int32(entry), maskRange(off, n))
		addr += uint64(n)
		remaining -= n
	}
	return val, lat
}

// dcacheWrite stores the low size bytes of data at addr through the L1D,
// splitting at line boundaries and emitting byte-precise write events
// stamped with the draining store's static location. It returns the total
// access latency (the drain-port occupancy).
func (c *Core) dcacheWrite(addr uint64, size uint8, data uint64, rip int32, upc uint8) int {
	remaining := int(size)
	lat := 0
	for remaining > 0 {
		off := c.l1d.Offset(addr)
		n := min(remaining, c.l1d.LineSize()-off)
		entry, l := c.l1d.Access(addr, n, true, c.cycle)
		lat += l
		arr := c.l1d.EntryData(entry)
		for i := 0; i < n; i++ {
			arr[off+i] = byte(data)
			data >>= 8
		}
		c.emitWrite(lifetime.StructL1D, int32(entry), maskRange(off, n), rip, upc)
		addr += uint64(n)
		remaining -= n
	}
	return lat
}

// misaligned reports whether a size-byte access at addr is not naturally
// aligned. Access sizes are powers of two, so this is a mask, not a divide.
func misaligned(addr uint64, size uint8) bool { return addr&uint64(size-1) != 0 }

// maskRange returns the byte mask covering bytes [off, off+n).
func maskRange(off, n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << n) - 1) << off
}

// extend truncates v to size bytes and zero- or sign-extends it.
func extend(v uint64, size uint8, signed bool) uint64 {
	bits := uint(size) * 8
	if bits >= 64 {
		return v
	}
	v &= (uint64(1) << bits) - 1
	if signed && v&(uint64(1)<<(bits-1)) != 0 {
		v |= ^uint64(0) << bits
	}
	return v
}

func aluResult(op isa.Op, s1, s2 uint64, imm int64) uint64 {
	switch op {
	case isa.ADD:
		return s1 + s2
	case isa.ADDI:
		return s1 + uint64(imm)
	case isa.SUB:
		return s1 - s2
	case isa.AND:
		return s1 & s2
	case isa.ANDI:
		return s1 & uint64(imm)
	case isa.OR:
		return s1 | s2
	case isa.ORI:
		return s1 | uint64(imm)
	case isa.XOR:
		return s1 ^ s2
	case isa.XORI:
		return s1 ^ uint64(imm)
	case isa.SLL:
		return s1 << (s2 & 63)
	case isa.SLLI:
		return s1 << (uint64(imm) & 63)
	case isa.SRL:
		return s1 >> (s2 & 63)
	case isa.SRLI:
		return s1 >> (uint64(imm) & 63)
	case isa.SRA:
		return uint64(int64(s1) >> (s2 & 63))
	case isa.SRAI:
		return uint64(int64(s1) >> (uint64(imm) & 63))
	case isa.MUL:
		return s1 * s2
	case isa.MULI:
		return s1 * uint64(imm)
	case isa.SLT:
		if int64(s1) < int64(s2) {
			return 1
		}
		return 0
	case isa.SLTI:
		if int64(s1) < imm {
			return 1
		}
		return 0
	case isa.SLTU:
		if s1 < s2 {
			return 1
		}
		return 0
	case isa.LI:
		return uint64(imm)
	case isa.NOP:
		return 0
	}
	assertf(false, "aluResult: unhandled op %v", op)
	return 0
}

func condTaken(op isa.Op, s1, s2 uint64) bool {
	switch op {
	case isa.BEQ:
		return s1 == s2
	case isa.BNE:
		return s1 != s2
	case isa.BLT:
		return int64(s1) < int64(s2)
	case isa.BGE:
		return int64(s1) >= int64(s2)
	case isa.BLTU:
		return s1 < s2
	case isa.BGEU:
		return s1 >= s2
	}
	assertf(false, "condTaken: unhandled op %v", op)
	return false
}
