package cpu

import (
	"sync"

	"merlin/internal/isa"
)

// poolKey identifies the shells that can serve a clone of a given core:
// same configuration (so every fixed-size array matches) and same program
// (so the shared cracked µop table and text are interchangeable).
type poolKey struct {
	cfg  Config
	prog *isa.Program
}

// ClonePool recycles retired machine snapshots. Injection schedulers take
// thousands of short-lived clones — one per fault — whose slices (register
// file, ROB, store queue, queues, predictor tables) are identical in shape;
// the pool keeps released Core shells on a free list keyed by configuration
// and rebuilds each clone by copy-over instead of reallocation.
//
// A released shell is never trusted: Clone overwrites every field of the
// shell from the source core (see Core.cloneInto), so a shell that died
// mid-panic or carries stale state is indistinguishable from a fresh
// allocation. The pool is safe for concurrent use; cloning the same
// *frozen* source from many goroutines is safe exactly as Core.Clone is.
// The zero ClonePool retains no shell until Retain raises its bound.
type ClonePool struct {
	mu   sync.Mutex
	free map[poolKey][]*Core
	max  int // free shells retained per key
}

// DefaultPoolShells bounds the free shells retained per (config, program)
// key: enough to serve every worker of a saturated scheduler with headroom,
// small enough that an idle pool holds only a few MB of arrays.
const DefaultPoolShells = 64

// NewClonePool returns a pool retaining up to max free shells per
// configuration; max <= 0 means DefaultPoolShells.
func NewClonePool(max int) *ClonePool {
	if max <= 0 {
		max = DefaultPoolShells
	}
	return &ClonePool{max: max}
}

// Retain raises the bound on the free shells retained per key to n, if it
// is lower.
func (p *ClonePool) Retain(n int) {
	p.mu.Lock()
	p.max = max(p.max, n)
	p.mu.Unlock()
}

// Free returns the free shells the pool retains, over every key.
func (p *ClonePool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.free {
		n += len(l)
	}
	return n
}

// Clone returns a snapshot of src, recycling a retired shell when one of
// matching shape is free and falling back to Core.Clone otherwise.
func (p *ClonePool) Clone(src *Core) *Core {
	k := poolKey{cfg: src.Cfg, prog: src.prog}
	p.mu.Lock()
	var shell *Core
	if l := p.free[k]; len(l) > 0 {
		shell = l[len(l)-1]
		l[len(l)-1] = nil
		p.free[k] = l[:len(l)-1]
	}
	p.mu.Unlock()
	if shell == nil {
		return src.Clone()
	}
	src.cloneInto(shell)
	return shell
}

// Release returns a clone to the pool once its run is classified. The
// caller must not use c afterwards: its slices will back a future clone.
// Shells beyond the per-key bound are dropped for the GC. Retained
// shells have their copy-on-write state stripped first, so an idle pool
// holds fixed-size microarchitectural arrays and each cache's recycled
// blocks (at most one per set, none ever frozen, reused by the next clone
// that privatises a set) — never the frozen snapshot lineage of the
// campaign that retired them.
func (p *ClonePool) Release(c *Core) {
	if c == nil {
		return
	}
	c.dropSnapshotState()
	k := poolKey{cfg: c.Cfg, prog: c.prog}
	p.mu.Lock()
	if len(p.free[k]) < p.max {
		if p.free == nil {
			p.free = make(map[poolKey][]*Core)
		}
		p.free[k] = append(p.free[k], c)
	}
	p.mu.Unlock()
}

// dropSnapshotState releases every reference a retired shell holds into
// shared copy-on-write state (memory pages and the caches' frozen
// generations), keeping only the allocations cloneInto and the next run
// will reuse. The shell is unusable until its next cloneInto.
func (c *Core) dropSnapshotState() {
	c.dmem.Reset()
	c.imem.Reset()
	c.l1i.Reset()
	c.l1d.Reset()
	c.l2.Reset()
}
