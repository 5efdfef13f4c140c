package cpu

// predictor implements an Alpha-21264-style tournament predictor plus a
// direct-mapped BTB for indirect targets and a return address stack.
// Direction predictions use a speculative global history (repaired from the
// per-branch snapshot on squash); the pattern tables, local histories and
// the BTB are updated non-speculatively at commit.
type predictor struct {
	localHist  []uint16 // per-PC branch history, indexed by RIP
	localPred  []uint8  // 2-bit counters indexed by local history
	globalPred []uint8  // 2-bit counters indexed by global history
	chooser    []uint8  // 2-bit: >=2 selects the global component
	ghr        uint64   // speculative global history (fetch)
	commitGHR  uint64   // architectural global history (commit)

	btbTag    []int64
	btbTarget []int64

	ras    []int64
	rasTop int
}

func newPredictor(cfg Config) *predictor {
	p := &predictor{
		localHist:  make([]uint16, cfg.LocalHistTable),
		localPred:  make([]uint8, cfg.LocalPredTable),
		globalPred: make([]uint8, cfg.GlobalPredTable),
		chooser:    make([]uint8, cfg.GlobalPredTable),
		btbTag:     make([]int64, cfg.BTBEntries),
		btbTarget:  make([]int64, cfg.BTBEntries),
		ras:        make([]int64, cfg.RASEntries),
	}
	for i := range p.btbTag {
		p.btbTag[i] = -1
	}
	// Weakly taken: loops predict well from the start.
	for i := range p.localPred {
		p.localPred[i] = 2
	}
	for i := range p.globalPred {
		p.globalPred[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

// tableIdx reduces x modulo a table length n. Table lengths are
// configuration values, in practice powers of two, and then the reduction
// is a mask instead of a hardware divide (of which a conditional branch
// otherwise costs eight between prediction and training).
func tableIdx(x uint64, n int) int {
	if n&(n-1) == 0 {
		return int(x) & (n - 1)
	}
	return int(x % uint64(n))
}

func (p *predictor) localIdx(rip int64) int {
	return tableIdx(uint64(rip), len(p.localHist))
}

// predictCond returns the taken/not-taken prediction for a conditional
// branch at rip and the pre-prediction GHR snapshot used for recovery. The
// speculative GHR is advanced with the prediction.
func (p *predictor) predictCond(rip int64) (taken bool, snap uint64) {
	snap = p.ghr
	lh := p.localHist[p.localIdx(rip)]
	local := p.localPred[tableIdx(uint64(lh), len(p.localPred))] >= 2
	global := p.globalPred[tableIdx(p.ghr, len(p.globalPred))] >= 2
	taken = local
	if p.chooser[tableIdx(p.ghr, len(p.chooser))] >= 2 {
		taken = global
	}
	p.ghr = p.ghr<<1 | b2u(taken)
	return taken, snap
}

// repair restores the speculative GHR after a mispredicted branch whose
// pre-prediction snapshot and actual outcome are given.
func (p *predictor) repair(snap uint64, taken bool) {
	p.ghr = snap<<1 | b2u(taken)
}

// updateCond trains the direction tables with a committed conditional
// branch outcome.
func (p *predictor) updateCond(rip int64, taken bool) {
	li := p.localIdx(rip)
	lh := p.localHist[li]
	lpi := tableIdx(uint64(lh), len(p.localPred))
	gpi := tableIdx(p.commitGHR, len(p.globalPred))
	chi := tableIdx(p.commitGHR, len(p.chooser))

	localSays := p.localPred[lpi] >= 2
	globalSays := p.globalPred[gpi] >= 2
	if localSays != globalSays {
		if globalSays == taken {
			sat(&p.chooser[chi], true)
		} else {
			sat(&p.chooser[chi], false)
		}
	}
	sat(&p.localPred[lpi], taken)
	sat(&p.globalPred[gpi], taken)
	p.localHist[li] = (lh<<1 | uint16(b2u(taken))) & 0x3ff
	p.commitGHR = p.commitGHR<<1 | b2u(taken)
}

// predictIndirect looks up the BTB for an indirect jump at rip; ok reports
// a tag hit.
func (p *predictor) predictIndirect(rip int64) (target int64, ok bool) {
	i := tableIdx(uint64(rip), len(p.btbTag))
	if p.btbTag[i] != rip {
		return 0, false
	}
	return p.btbTarget[i], true
}

// updateIndirect trains the BTB with a committed indirect target.
func (p *predictor) updateIndirect(rip, target int64) {
	i := tableIdx(uint64(rip), len(p.btbTag))
	p.btbTag[i] = rip
	p.btbTarget[i] = target
}

// push records a return address on the RAS (speculative, not repaired on
// squash: a cold or clobbered RAS only costs mispredictions).
func (p *predictor) push(ret int64) {
	p.ras[p.rasTop] = ret
	p.rasTop = ringNext(p.rasTop, len(p.ras))
}

// pop predicts a return target from the RAS.
func (p *predictor) pop() int64 {
	p.rasTop = ringAdd(p.rasTop, len(p.ras)-1, len(p.ras))
	return p.ras[p.rasTop]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sat moves a 2-bit saturating counter toward (up=true) or away from taken.
func sat(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}
