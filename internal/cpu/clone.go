package cpu

import "unsafe"

// Clone returns a snapshot of the whole machine state that can be stepped
// independently of the original. Campaigns use clones as checkpoints so
// each injection run replays only from the nearest snapshot before its
// fault cycle instead of from reset (the run-acceleration idea of
// Chatzidimitriou & Gizopoulos [12], orthogonal to MeRLiN itself).
//
// Memory and all three cache levels are copy-on-write: cloning freezes
// their current state into shared generations and copies pointers, not
// bytes; each machine privatises a page or cache set only when it next
// touches it. Cloning a frozen snapshot (one not stepped since its last
// Clone) never mutates it, so any number of goroutines may Clone one
// frozen snapshot concurrently — the checkpoint ladders rely on this.
//
// The lifetime tracer is not cloned: snapshots serve injection runs, which
// are never traced. Clone of a traced core returns an untraced snapshot —
// no tracer, no pending reads, no L1D fill/evict hooks — and leaves the
// traced run itself unchanged.
func (c *Core) Clone() *Core {
	n := new(Core)
	c.cloneInto(n)
	return n
}

// cloneInto copies the complete machine state of c into n, reusing n's
// existing allocations (slices, maps, predictor tables) wherever the
// capacities fit. It overwrites every field (TestCloneCoversEveryField) —
// a recycled shell from a ClonePool is scrubbed by copy-over, never
// trusted — and only reads c: derived state (the executing set, the issue
// queue records) is copied like any other, never rebuilt lazily on the
// source, which other goroutines may be cloning. n must not be c.
func (c *Core) cloneInto(n *Core) {
	n.Cfg = c.Cfg
	n.prog = c.prog
	n.uops, n.uopFirst = c.uops, c.uopFirst // immutable, shared

	n.cycle = c.cycle
	n.seqGen = c.seqGen
	n.halted = c.halted

	n.regVal = append(n.regVal[:0], c.regVal...)
	n.regReady = append(n.regReady[:0], c.regReady...)
	n.rat = c.rat
	n.freeList = append(n.freeList[:0], c.freeList...)

	n.rob = append(n.rob[:0], c.rob...)
	n.robHead = c.robHead
	n.robLen = c.robLen
	n.executing = c.executing
	n.iq = append(n.iq[:0], c.iq...)

	n.sq = append(n.sq[:0], c.sq...)
	n.sqHead = c.sqHead
	n.sqLen = c.sqLen
	n.lqLen = c.lqLen
	n.drainBusyUntil = c.drainBusyUntil

	n.fetchPC = c.fetchPC
	n.fetchHalted = c.fetchHalted
	n.fetchReadyAt = c.fetchReadyAt
	n.chargedLine = c.chargedLine
	n.decodeQ = append(n.decodeQ[:0], c.decodeQ...)
	n.dqHead = c.dqHead
	n.dqTail = c.dqTail
	n.pred = c.pred.cloneInto(n.pred)

	n.curTemps = c.curTemps
	n.tempAcc = c.tempAcc
	n.curTempCount = c.curTempCount
	n.lastSQ = c.lastSQ

	n.output = append(n.output[:0], c.output...)
	n.excLog = append(n.excLog[:0], c.excLog...)
	n.committedInsts = c.committedInsts
	n.committedUops = c.committedUops
	n.lastCommitAt = c.lastCommitAt

	n.archRegs = c.archRegs

	n.stats = c.stats
	n.stored = c.stored
	n.tracer = nil
	n.reads = nil
	n.witness = nil
	n.mutate = nil
	n.watch = watch{}

	if n.dmem == nil {
		n.dmem = c.dmem.Clone()
	} else {
		c.dmem.CloneInto(n.dmem)
	}
	if n.imem == nil {
		n.imem = c.imem.Clone()
	} else {
		c.imem.CloneInto(n.imem)
	}
	if n.l2 == nil {
		n.l2 = c.l2.Clone(n.dmem)
	} else {
		c.l2.CloneInto(n.l2, n.dmem)
	}
	if n.l1d == nil {
		n.l1d = c.l1d.Clone(n.l2)
	} else {
		c.l1d.CloneInto(n.l1d, n.l2)
	}
	if n.l1i == nil {
		n.l1i = c.l1i.Clone(n.imem)
	} else {
		c.l1i.CloneInto(n.l1i, n.imem)
	}
}

// cloneInto copies the predictor state into dst, reusing its tables when
// the sizes match; it returns dst (or a fresh predictor when dst is nil or
// differently sized).
func (p *predictor) cloneInto(dst *predictor) *predictor {
	if dst == nil || len(dst.localHist) != len(p.localHist) ||
		len(dst.localPred) != len(p.localPred) || len(dst.globalPred) != len(p.globalPred) ||
		len(dst.btbTag) != len(p.btbTag) || len(dst.ras) != len(p.ras) {
		dst = &predictor{
			localHist:  make([]uint16, len(p.localHist)),
			localPred:  make([]uint8, len(p.localPred)),
			globalPred: make([]uint8, len(p.globalPred)),
			chooser:    make([]uint8, len(p.chooser)),
			btbTag:     make([]int64, len(p.btbTag)),
			btbTarget:  make([]int64, len(p.btbTarget)),
			ras:        make([]int64, len(p.ras)),
		}
	}
	copy(dst.localHist, p.localHist)
	copy(dst.localPred, p.localPred)
	copy(dst.globalPred, p.globalPred)
	copy(dst.chooser, p.chooser)
	copy(dst.btbTag, p.btbTag)
	copy(dst.btbTarget, p.btbTarget)
	copy(dst.ras, p.ras)
	dst.ghr = p.ghr
	dst.commitGHR = p.commitGHR
	dst.rasTop = p.rasTop
	return dst
}

// Footprint estimates the machine snapshot's resident bytes: the fixed
// microarchitectural arrays at their allocated sizes, caches at their full
// geometry, and memory at its reachable page count. Copy-on-write sharing
// with other clones is not discounted, so summing Footprint over a
// snapshot lineage is a conservative (over-counting) bound — exactly what
// a byte-budgeted snapshot cache wants.
func (c *Core) Footprint() int64 {
	const shellBytes = 4096 // Core struct + map headers, order of magnitude
	f := int64(shellBytes)
	f += int64(len(c.regVal))*8 + int64(len(c.regReady))
	f += int64(len(c.rob)) * int64(unsafe.Sizeof(robEntry{}))
	f += int64(len(c.sq)) * int64(unsafe.Sizeof(sqEntry{}))
	f += int64(len(c.decodeQ)) * int64(unsafe.Sizeof(pendingUop{}))
	f += int64(cap(c.iq))*int64(unsafe.Sizeof(iqEntry{})) + int64(cap(c.freeList))*2
	f += int64(cap(c.output))*8 + int64(cap(c.excLog))*4
	p := c.pred
	f += int64(len(p.localHist))*2 + int64(len(p.localPred)) + int64(len(p.globalPred)) +
		int64(len(p.chooser)) + int64(len(p.btbTag))*8 + int64(len(p.btbTarget))*8 + int64(len(p.ras))*8
	f += c.l1i.FootprintBytes() + c.l1d.FootprintBytes() + c.l2.FootprintBytes()
	f += c.dmem.ResidentBytes() + c.imem.ResidentBytes()
	return f
}
