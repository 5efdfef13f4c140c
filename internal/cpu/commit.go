package cpu

import (
	"merlin/internal/isa"
	"merlin/internal/lifetime"
)

// commitStage retires done µops in program order, raising precise
// exceptions, draining stores to the data cache, training the branch
// predictor, releasing renamed registers and publishing the committed
// structure reads to the lifetime tracer.
func (c *Core) commitStage() {
	for n := 0; n < c.Cfg.CommitWidth && c.robLen > 0; n++ {
		e := &c.rob[c.robHead]
		if e.state != stDone {
			return
		}
		switch e.exc {
		case ExcNone:
		case ExcMisalign:
			// The simulated kernel fixed the access up; the event is
			// architecturally visible (extra exception => potential DUE).
			c.excLog = append(c.excLog, uint32(e.rip)<<3|uint32(ExcMisalign))
		case ExcPageFault:
			c.halted = CrashPageFault
			return
		case ExcDivZero:
			c.halted = CrashDivZero
			return
		case ExcBadFetch:
			c.halted = CrashBadFetch
			return
		}

		switch e.kind {
		case isa.UopHalt:
			c.halted = HaltOK
			c.lastCommitAt = c.cycle
			return
		case isa.UopOut:
			c.output = append(c.output, e.result)
		case isa.UopSTD:
			c.commitStore(e)
		case isa.UopLoad:
			c.lqLen--
		case isa.UopBr:
			if isa.IsCondBranch(c.uops[e.uop].Op) {
				c.pred.updateCond(e.rip, e.actTaken)
				if c.tracer != nil {
					c.tracer.RecordBranch(e.seq, int32(e.rip), int32(e.actTarget), e.actTaken)
				}
			}
		case isa.UopJmp:
			c.pred.updateIndirect(e.rip, e.actTarget)
		}

		if e.archDest >= 0 {
			c.archRegs[e.archDest] = c.regVal[e.physDest]
		}
		if e.oldPhys >= 0 {
			c.freePhys(e.oldPhys)
		}
		if e.freeT1 >= 0 {
			c.freePhys(e.freeT1)
		}
		if e.freeT2 >= 0 {
			c.freePhys(e.freeT2)
		}
		if e.last {
			c.committedInsts++
		}
		if c.traceW != nil {
			c.traceCommit(e)
		}
		if c.tracer != nil {
			c.flushReads(c.robHead, e)
		}
		c.committedUops++
		c.lastCommitAt = c.cycle
		if e.last && c.witness != nil {
			ev := RetireEvent{
				Seq: e.seq, RIP: e.rip, Inst: c.prog.Text[e.rip],
				Regs:      c.archRegs,
				OutputLen: len(c.output), ExcLogLen: len(c.excLog),
			}
			switch e.kind {
			case isa.UopSTD:
				s := &c.sq[e.sqSlot]
				ev.HasStore, ev.StoreAddr, ev.StoreSize, ev.StoreData = true, s.addr, s.size, s.data
			case isa.UopOut:
				ev.HasOut, ev.Out = true, e.result
			}
			c.witness(ev)
		}
		c.robHead = ringNext(c.robHead, len(c.rob))
		c.robLen--
	}
}

// commitStore retires the store architecturally: the entry stays in the
// store queue, marked committed, until drainStage writes it to the data
// cache (stores leave the SQ when the cache write completes, not at
// commit — the residency that makes the SQ data field vulnerable).
func (c *Core) commitStore(e *robEntry) {
	s := &c.sq[e.sqSlot]
	assertf(s.valid && s.addrOK && s.dataOK, "committing incomplete store (valid=%v addrOK=%v dataOK=%v)", s.valid, s.addrOK, s.dataOK)
	s.committed = true
	s.drainRIP = e.rip
	s.drainUPC = c.uops[e.uop].UPC
	s.drainSeq = e.seq
}

// drainStage writes the oldest committed store to the data cache through a
// single drain port: the next drain may start only after the current write
// completes. Reading the SQ data field on the way out is the committed
// read that ends the entry's vulnerable interval, attributed to the
// store's STD µop.
func (c *Core) drainStage() {
	if c.sqLen == 0 || c.cycle < c.drainBusyUntil {
		return
	}
	slot := c.sqHead
	s := &c.sq[slot]
	if !s.committed {
		return
	}
	c.stats.Stores++
	lat := c.dcacheWrite(s.addr, s.size, s.data, int32(s.drainRIP), s.drainUPC)
	c.drainBusyUntil = c.cycle + uint64(lat)
	if c.tracer != nil {
		c.tracer.Emit(lifetime.StructSQ, lifetime.Event{
			Cycle: c.cycle, CommitSeq: s.drainSeq,
			Entry: int32(slot), Mask: maskRange(0, int(s.size)),
			Kind: lifetime.EvRead, RIP: int32(s.drainRIP), UPC: s.drainUPC,
		})
	}
	s.valid, s.addrOK, s.dataOK, s.committed = false, false, false, false
	c.emitInvalidate(lifetime.StructSQ, int32(slot), 0xff)
	c.sqHead = ringNext(c.sqHead, len(c.sq))
	c.sqLen--
}
