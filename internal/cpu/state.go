package cpu

import (
	"bytes"
	"slices"
	"unsafe"

	"merlin/internal/lifetime"
)

// StateEqual reports whether two cores of the same configuration and
// program are in bit-identical machine states: every microarchitectural
// structure (registers, rename state, ROB, IQ, SQ, frontend, predictor),
// the full cache hierarchy including metadata and statistics, both
// memories, and the architectural results so far (output, exception log).
//
// The simulator is deterministic, so two state-equal cores evolve
// identically forever. Neither core may have a tracer attached.
func StateEqual(a, b *Core) bool {
	return controlEqual(a, b) &&
		slices.Equal(a.regVal, b.regVal) &&
		slices.Equal(a.sq, b.sq) &&
		a.l1d.Equal(b.l1d) && a.l1i.Equal(b.l1i) && a.l2.Equal(b.l2) &&
		a.dmem.Equal(b.dmem) && a.imem.Equal(b.imem)
}

// MaskedEquivalent reports whether faulty core c, compared against the
// fault-free core g at the same cycle, is guaranteed to finish the run
// with g's exact architectural outcome — i.e. the injected fault is
// already Masked. It is StateEqual relaxed in exactly one way: bits are
// allowed to differ inside storage that is provably dead, because the
// machine always fully overwrites it before its next read:
//
//   - values of free physical registers: a register returns to the free
//     list only when no in-flight µop references it, and its next
//     allocation writes the whole word (gated by regReady) before any
//     consumer issues;
//   - the data field of invalid store-queue slots: drain/squash clear
//     valid and dataOK together, forwarding and drain read data only when
//     dataOK, and the next STD rewrites the whole field;
//   - data bytes of invalid cache lines: lookup only hits valid lines and
//     a fill overwrites the entire line before validating it.
//
// Dead bits are never read, so they influence neither timing nor
// architectural results: both machines run on identically forever (dead
// locations are later overwritten with identical values or stay dead).
// The fork-on-fault scheduler uses this as its convergence early-exit.
func MaskedEquivalent(c, g *Core) bool {
	if !controlEqual(c, g) {
		return false
	}
	// Physical registers: differences only in dead (free, unreferenced)
	// registers.
	for i := range c.regVal {
		if c.regVal[i] != g.regVal[i] && !c.regDead(int16(i)) {
			return false
		}
	}
	// Store queue: data differences only in invalid slots.
	for i := range c.sq {
		a, b := c.sq[i], g.sq[i]
		if a.data != b.data && c.sqDead(i) {
			a.data, b.data = 0, 0
		}
		if a != b {
			return false
		}
	}
	return c.l1d.EqualLive(g.l1d) && c.l1i.EqualLive(g.l1i) && c.l2.EqualLive(g.l2) &&
		c.dmem.Equal(g.dmem) && c.imem.Equal(g.imem)
}

// Dead reports whether the data of entry of injectable structure s is dead
// storage by MaskedEquivalent's rules — a free register, an invalid
// store-queue slot, an invalid L1D line — so that a bit flipped there now
// leaves the core masked-equivalent to its unflipped self: the fault is
// Masked at the flip. It only reads the core.
func (c *Core) Dead(s lifetime.StructureID, entry int) bool {
	switch s {
	case lifetime.StructRF:
		return c.regDead(int16(entry))
	case lifetime.StructSQ:
		return c.sqDead(entry)
	case lifetime.StructL1D:
		return !c.l1d.Valid(entry)
	}
	return false
}

// sqDead reports whether store-queue slot i holds no live data.
func (c *Core) sqDead(i int) bool { return !c.sq[i].valid }

// regDead reports whether physical register p holds no live value: it is
// on the free list and no in-flight ROB entry or rename scratch register
// references it. (The free-list check alone is sufficient under the
// rename invariants; the reference scan is defence in depth.)
func (c *Core) regDead(p int16) bool {
	for _, a := range c.rat {
		if a == p {
			return false
		}
	}
	if !slices.Contains(c.freeList, p) {
		return false
	}
	for i, slot := 0, c.robHead; i < c.robLen; i, slot = i+1, ringNext(slot, len(c.rob)) {
		e := &c.rob[slot]
		if e.physDest == p || e.oldPhys == p || e.src1 == p || e.src2 == p ||
			e.freeT1 == p || e.freeT2 == p {
			return false
		}
	}
	if c.curTemps[0] == p || c.curTemps[1] == p || c.tempAcc[0] == p || c.tempAcc[1] == p {
		return false
	}
	return true
}

// controlEqual compares everything outside the fault-injectable data
// arrays: all scalar pipeline state, rename tables, ROB/IQ/decode
// contents, the predictor, and the architectural results so far. Cheap
// scalar state is compared first so diverged machines fail fast. The ROB
// is compared whole, dead slots included, and the decode queue over every
// record written since it last emptied that the ring still holds.
func controlEqual(a, b *Core) bool {
	assertf(a.tracer == nil && b.tracer == nil, "state comparison of a traced core")
	if a.cycle != b.cycle || a.seqGen != b.seqGen || a.halted != b.halted ||
		a.robHead != b.robHead || a.robLen != b.robLen || a.executing != b.executing ||
		a.sqHead != b.sqHead || a.sqLen != b.sqLen || a.lqLen != b.lqLen ||
		a.drainBusyUntil != b.drainBusyUntil ||
		a.fetchPC != b.fetchPC || a.fetchHalted != b.fetchHalted ||
		a.fetchReadyAt != b.fetchReadyAt || a.chargedLine != b.chargedLine ||
		a.dqHead != b.dqHead || a.dqTail != b.dqTail ||
		a.rat != b.rat || a.archRegs != b.archRegs ||
		a.curTemps != b.curTemps || a.tempAcc != b.tempAcc ||
		a.curTempCount != b.curTempCount || a.lastSQ != b.lastSQ ||
		a.committedInsts != b.committedInsts || a.committedUops != b.committedUops ||
		a.lastCommitAt != b.lastCommitAt || a.stats != b.stats {
		return false
	}
	dq := min(a.dqTail, len(a.decodeQ), len(b.decodeQ))
	if !memEqual(a.regReady, b.regReady) ||
		!memEqual(a.freeList, b.freeList) || !memEqual(a.iq, b.iq) ||
		!memEqual(a.output, b.output) || !memEqual(a.excLog, b.excLog) ||
		!memEqual(a.rob, b.rob) ||
		!memEqual(a.decodeQ[:dq], b.decodeQ[:dq]) {
		return false
	}
	p, q := a.pred, b.pred
	return p.ghr == q.ghr && p.commitGHR == q.commitGHR && p.rasTop == q.rasTop &&
		memEqual(p.localHist, q.localHist) && memEqual(p.localPred, q.localPred) &&
		memEqual(p.globalPred, q.globalPred) && memEqual(p.chooser, q.chooser) &&
		memEqual(p.btbTag, q.btbTag) && memEqual(p.btbTarget, q.btbTarget) &&
		memEqual(p.ras, q.ras)
}

// memEqual reports whether a and b hold the same elements by comparing
// their memory, which the runtime does a cache line at a time where
// slices.Equal loops element by element. T must be free of pointers,
// padding and floats, so that equal bytes are exactly equal values:
// integers, bools, and the record structs TestRecordLayouts checks.
func memEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	n := len(a) * int(unsafe.Sizeof(a[0]))
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), n), unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), n))
}
