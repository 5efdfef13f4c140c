package cpu

import (
	"math/bits"

	"merlin/internal/isa"
)

// fetchStage fetches macro-instructions at fetchPC, predicts control flow,
// and writes one decode-queue record per µop of their static decomposition.
// Instruction cache latency is charged once per fetched line.
func (c *Core) fetchStage() {
	if c.fetchHalted || c.cycle < c.fetchReadyAt {
		return
	}
	if c.dqHead == c.dqTail {
		c.dqHead, c.dqTail = 0, 0
	}
	mask := len(c.decodeQ) - 1
	lineBits := uint(bits.TrailingZeros(uint(c.Cfg.L1I.LineSize))) // a power of two
	fetched := 0
	for fetched < c.Cfg.FetchWidth {
		if c.dqTail-c.dqHead+4 > c.Cfg.DecodeQCap {
			return
		}
		pc := c.fetchPC
		if pc < 0 || pc >= int64(len(c.uopFirst)-1) {
			// Control flow left the text segment. Emit a poisoned µop
			// that crashes the process if it commits; if it is on the
			// wrong path the squash will clean it up.
			c.decodeQ[c.dqTail&mask] = pendingUop{rip: pc, uop: badUop}
			c.dqTail++
			c.fetchHalted = true
			return
		}
		line := pc << 3 >> lineBits // 8-byte instructions; pc >= 0 here
		if line != c.chargedLine {
			_, lat := c.l1i.Access(uint64(pc)*8, 8, false, c.cycle)
			c.chargedLine = line
			if lat > c.Cfg.L1I.HitLatency {
				c.fetchReadyAt = c.cycle + uint64(lat)
				return
			}
		}

		// A control-flow instruction is its own single µop, so the static
		// table answers everything fetch asks about the instruction.
		first, end := c.uopFirst[pc], c.uopFirst[pc+1]
		u := &c.uops[first]
		nextPC := pc + 1
		stop := false
		var predTarget int64
		var ghrSnap uint64
		switch {
		case u.Kind == isa.UopBr && u.Op != isa.JAL: // conditional branch
			var taken bool
			taken, ghrSnap = c.pred.predictCond(pc)
			if taken {
				predTarget = u.Imm
				nextPC = u.Imm
				stop = true
			} else {
				predTarget = pc + 1
			}
		case u.Kind == isa.UopBr: // JAL
			predTarget = u.Imm
			nextPC = u.Imm
			stop = true
			if u.Rd == isa.RegLR {
				c.pred.push(pc + 1)
			}
		case u.Kind == isa.UopJmp: // JALR
			if u.Rs1 == isa.RegLR && u.Rd == isa.NoReg {
				predTarget = c.pred.pop()
			} else if t, ok := c.pred.predictIndirect(pc); ok {
				predTarget = t
			} else {
				predTarget = pc + 1
			}
			nextPC = predTarget
			stop = true
		case u.Kind == isa.UopHalt:
			c.fetchHalted = true
			stop = true
		}

		for i := first; i < end; i++ {
			// Field stores, not a struct literal: the compiler builds a
			// literal on the stack and copies it with wider loads than
			// the stores that wrote it, which stalls on every µop.
			pu := &c.decodeQ[c.dqTail&mask]
			pu.rip, pu.predTarget, pu.ghrSnap, pu.uop, pu.end = pc, predTarget, ghrSnap, i, end
			c.dqTail++
		}
		c.fetchPC = nextPC
		fetched++
		if stop {
			return
		}
	}
}

// renameStage moves µops from the decode queue into the ROB, renaming
// architectural and temp registers onto the physical register file and
// allocating LSQ slots. A ROB slot is recycled without ever being cleared
// on squash or commit, so every field of the record is (re)written here.
func (c *Core) renameStage() {
	for n := 0; n < c.Cfg.RenameWidth && c.dqHead < c.dqTail; n++ {
		pu := &c.decodeQ[c.dqHead&(len(c.decodeQ)-1)]
		if c.robLen == len(c.rob) {
			return
		}
		var u *isa.Uop
		if pu.uop != badUop {
			u = &c.uops[pu.uop]
			if fuOf[u.Kind] != fuNone && len(c.iq) >= c.Cfg.IQEntries {
				return
			}
			if (u.Rd >= 0 || u.TempDst >= 0) && len(c.freeList) == 0 {
				return
			}
			if u.Kind == isa.UopSTA && c.sqLen == len(c.sq) {
				return
			}
			if u.Kind == isa.UopLoad && c.lqLen >= c.Cfg.LQEntries {
				return
			}
		}

		c.seqGen++
		idx := ringAdd(c.robHead, c.robLen, len(c.rob))
		c.robLen++
		c.dqHead++
		if c.reads != nil {
			c.reads[idx].n = 0
		}
		// Renamed registers live in locals until they are stored, once:
		// reading a record field back at a different width than it was
		// just written with defeats the host's store forwarding.
		seq, last := c.seqGen, pu.uop+1 == pu.end
		src1, src2, physDest, sqSlot := int16(-1), int16(-1), int16(-1), int16(-1)
		e := &c.rob[idx]
		*e = robEntry{}
		e.seq, e.rip, e.uop, e.last = seq, pu.rip, pu.uop, last
		e.predTarget, e.ghrSnap = pu.predTarget, pu.ghrSnap
		e.oldPhys, e.archDest, e.freeT1, e.freeT2 = -1, -1, -1, -1

		if u == nil {
			e.src1, e.src2, e.physDest, e.sqSlot = -1, -1, -1, -1
			e.kind = isa.UopNop
			e.state = stDone
			e.exc = ExcBadFetch
			continue
		}
		e.kind = u.Kind

		if u.UPC == 0 {
			c.curTempCount = 0
		}
		// Rename sources before allocating the destination: an
		// instruction may read and write the same architectural register.
		if u.TempSrc >= 0 {
			src1 = c.curTemps[u.TempSrc]
		} else if u.Rs1 >= 0 {
			src1 = c.rat[u.Rs1]
		}
		if u.Rs2 >= 0 {
			src2 = c.rat[u.Rs2]
		}

		if u.Rd >= 0 {
			physDest = c.allocPhys()
			e.oldPhys = c.rat[u.Rd]
			e.archDest = u.Rd
			c.rat[u.Rd] = physDest
		} else if u.TempDst >= 0 {
			physDest = c.allocPhys()
			c.curTemps[u.TempDst] = physDest
			assertf(c.curTempCount < len(c.tempAcc), "macro-op with more than %d temps", len(c.tempAcc))
			c.tempAcc[c.curTempCount] = physDest
			c.curTempCount++
		}
		if last && c.curTempCount > 0 {
			e.freeT1 = c.tempAcc[0]
			if c.curTempCount > 1 {
				e.freeT2 = c.tempAcc[1]
			}
			c.curTempCount = 0
		}

		switch u.Kind {
		case isa.UopSTA:
			sqSlot = int16(ringAdd(c.sqHead, c.sqLen, len(c.sq)))
			c.sqLen++
			c.sq[sqSlot] = sqEntry{valid: true, seq: seq, size: u.MemSize}
			c.lastSQ = sqSlot
		case isa.UopSTD:
			assertf(c.lastSQ >= 0, "STD with no preceding STA")
			sqSlot = c.lastSQ
		case isa.UopLoad:
			c.lqLen++
		}
		e.src1, e.src2, e.physDest, e.sqSlot = src1, src2, physDest, sqSlot

		if fu := fuOf[u.Kind]; fu != fuNone {
			e.state = stWaiting
			c.iq = append(c.iq, iqEntry{slot: int16(idx), src1: src1, src2: src2, fu: fu})
		} else {
			e.state = stDone
			e.doneAt = c.cycle
		}
	}
}

func (c *Core) allocPhys() int16 {
	assertf(len(c.freeList) > 0, "free list underflow")
	p := c.freeList[len(c.freeList)-1]
	c.freeList = c.freeList[:len(c.freeList)-1]
	c.regReady[p] = false
	return p
}
