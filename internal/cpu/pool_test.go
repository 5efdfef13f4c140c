package cpu

import (
	"fmt"
	"sync"
	"testing"

	"merlin/internal/isa"
	"merlin/internal/lifetime"
	"merlin/internal/mem"
)

// runToEnd steps a core to completion and returns its result.
func runToEnd(c *Core) RunResult { return c.Run(2_000_000) }

// TestPooledCloneDifferential: a pooled clone — including one rebuilt into
// a recycled, dirty shell — must evolve bit-identically to a plain Clone
// of the same snapshot.
func TestPooledCloneDifferential(t *testing.T) {
	src := stateTestCore(t)
	frozen := src.Clone()
	pool := NewClonePool(0)

	want := runToEnd(frozen.Clone())

	// First pooled clone: fresh shell path.
	c1 := pool.Clone(frozen)
	if !StateEqual(c1, frozen.Clone()) {
		t.Fatal("pooled clone differs from plain clone")
	}
	if err := c1.checkDerived(); err != nil {
		t.Fatal(err)
	}
	got1 := runToEnd(c1)

	// Release the now-dirty (run-to-halt) shell and clone again: the
	// copy-over scrub path. State and outcome must be identical.
	pool.Release(c1)
	c2 := pool.Clone(frozen)
	if !StateEqual(c2, frozen.Clone()) {
		t.Fatal("recycled-shell clone differs from plain clone")
	}
	if err := c2.checkDerived(); err != nil {
		t.Fatal(err)
	}
	got2 := runToEnd(c2)

	for i, got := range []RunResult{got1, got2} {
		if got.Halt != want.Halt || got.Cycles != want.Cycles ||
			len(got.Output) != len(want.Output) || got.Stats != want.Stats {
			t.Fatalf("pooled run %d diverged: %+v vs %+v", i, got, want)
		}
		for j := range got.Output {
			if got.Output[j] != want.Output[j] {
				t.Fatalf("pooled run %d output[%d] = %d, want %d", i, j, got.Output[j], want.Output[j])
			}
		}
	}
}

// TestPooledCloneScrubsFaultyShell: a shell released after a faulty run
// (injected bits, advanced state) must come back indistinguishable from a
// fresh clone.
func TestPooledCloneScrubsFaultyShell(t *testing.T) {
	src := stateTestCore(t)
	frozen := src.Clone()
	pool := NewClonePool(0)

	dirty := pool.Clone(frozen)
	dirty.FlipBit(lifetime.StructRF, 3, 17)
	dirty.FlipBit(lifetime.StructL1D, 0, 5)
	for i := 0; i < 500 && dirty.Halted() == Running; i++ {
		dirty.Step()
	}
	pool.Release(dirty)

	clean := pool.Clone(frozen)
	if clean != dirty {
		t.Fatal("pool did not recycle the released shell (test needs the scrub path)")
	}
	if !StateEqual(clean, frozen.Clone()) {
		t.Fatal("recycled shell not scrubbed to the source state")
	}
	if err := clean.checkDerived(); err != nil {
		t.Fatal(err)
	}
}

// TestPooledCloneConfigMismatch: shells only serve sources of identical
// configuration and program; anything else falls back to fresh clones.
func TestPooledCloneConfigMismatch(t *testing.T) {
	a := stateTestCore(t)
	pool := NewClonePool(0)
	pool.Release(a.Clone())

	cfg := DefaultConfig()
	cfg.PhysRegs = 128
	b := New(cfg, a.prog)
	for i := 0; i < 100; i++ {
		b.Step()
	}
	clone := pool.Clone(b.Clone())
	if len(clone.regVal) != 128 {
		t.Fatalf("config-mismatched shell reused: %d physical registers, want 128", len(clone.regVal))
	}
}

// TestConcurrentPooledClones: many goroutines cloning one frozen snapshot
// through one pool, stepping and releasing, must all reproduce the serial
// outcome. Under -race this also proves pooled cloning of a frozen source
// is read-only on the source.
func TestConcurrentPooledClones(t *testing.T) {
	src := stateTestCore(t)
	frozen := src.Clone()
	want := runToEnd(frozen.Clone())
	pool := NewClonePool(0)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				c := pool.Clone(frozen)
				got := runToEnd(c)
				if got.Halt != want.Halt || got.Cycles != want.Cycles {
					errs <- fmt.Errorf("worker %d run %d: %v/%d cycles, want %v/%d",
						id, i, got.Halt, got.Cycles, want.Halt, want.Cycles)
				}
				pool.Release(c)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStateHashPinned: the page-skipping fast path must produce the exact
// digest of hashing the whole zero-filled [DataBase, MemTop) range byte by
// byte, as the pre-optimization implementation did.
func TestStateHashPinned(t *testing.T) {
	c := stateTestCore(t)
	c.FlushDataCaches()

	// Reference: the original implementation's memory walk, fused with
	// the same register/cache/SQ tail StateHash still performs.
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	byteIn := func(b byte) { h = (h ^ uint64(b)) * prime }
	u64In := func(v uint64) {
		for i := 0; i < 8; i++ {
			byteIn(byte(v >> (8 * i)))
		}
	}
	buf := make([]byte, 4096)
	for addr := uint64(isa.DataBase); addr < isa.MemTop; addr += uint64(len(buf)) {
		c.dmem.ReadBytes(addr, buf)
		for _, b := range buf {
			byteIn(b)
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
	for i := 0; i < c.sqLen; i++ {
		s := &c.sq[(c.sqHead+i)%len(c.sq)]
		if s.dataOK {
			u64In(s.data)
		}
	}

	if got := c.StateHash(); got != h {
		t.Fatalf("StateHash fast path diverged: got %#x, want %#x", got, h)
	}
}

// TestStateHashSeesMemoryDiff: the zero-page fast path must not blind the
// hash to real memory differences (including a page written to all
// zeros, which hashes like an untouched one — same bytes, same digest).
func TestStateHashSeesMemoryDiff(t *testing.T) {
	a := stateTestCore(t)
	b := a.Clone()
	a.FlushDataCaches()
	b.FlushDataCaches()
	if a.StateHash() != b.StateHash() {
		t.Fatal("identical clones hash differently")
	}
	b.dmem.WriteBytes(isa.DataBase+0x3000, []byte{1})
	if a.StateHash() == b.StateHash() {
		t.Fatal("memory difference not reflected in the hash")
	}
	b.dmem.WriteBytes(isa.DataBase+0x3000, []byte{0})
	if a.StateHash() != b.StateHash() {
		t.Fatal("an explicitly zeroed page must hash like an untouched one")
	}
}
