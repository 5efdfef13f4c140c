package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

func testCache(t testing.TB) (*Cache, *Memory) {
	t.Helper()
	mem := NewMemory(0, 1<<20, 4)
	for a := uint64(0); a < 1<<14; a += 8 {
		var b [8]byte
		for i := range b {
			b[i] = byte(a + uint64(i))
		}
		mem.WriteBytes(a, b[:])
	}
	return NewCache(CacheConfig{Name: "T", Size: 4 << 10, LineSize: 64, Ways: 4, HitLatency: 1}, mem), mem
}

// cloneOver clones c together with its backing memory, mirroring what
// cpu.Core.Clone does: each machine owns its whole hierarchy, and only
// frozen copy-on-write generations are shared.
func cloneOver(c *Cache, m *Memory) (*Cache, *Memory) {
	nm := m.Clone()
	return c.Clone(nm), nm
}

// touch performs a deterministic access pattern, mixing reads and writes.
func touch(c *Cache, rounds int, salt uint64) {
	cycle := uint64(0)
	for r := 0; r < rounds; r++ {
		for a := uint64(0); a < 1<<13; a += 192 {
			cycle++
			addr := (a + salt*64) & ^uint64(7)
			e, _ := c.Access(addr, 8, r%2 == 1, cycle)
			if r%2 == 1 {
				d := c.EntryData(e)
				d[c.Offset(addr)] ^= byte(salt + a)
			}
		}
	}
}

// TestCacheCloneIsolation: after a Clone, writes on either side must not
// leak into the other; the untouched side stays Equal to a deep reference.
func TestCacheCloneIsolation(t *testing.T) {
	orig, m := testCache(t)
	touch(orig, 3, 1)

	clone, _ := cloneOver(orig, m)
	if !orig.Equal(clone) || !clone.Equal(orig) {
		t.Fatal("fresh clone not equal to original")
	}

	// Snapshot the original's observable state for later comparison.
	ref, _ := cloneOver(orig, m)

	// Diverge the clone heavily; the original must be unaffected.
	touch(clone, 4, 7)
	if !orig.Equal(ref) {
		t.Fatal("writes to a clone leaked into the original")
	}
	if orig.Equal(clone) {
		t.Fatal("diverged caches compare equal")
	}

	// Diverge the original too; the ref snapshot must be unaffected.
	touch(orig, 2, 3)
	if ref.Equal(orig) {
		t.Fatal("writes to the original leaked into its frozen snapshot")
	}
}

// TestCacheCloneEqualDeep: a CoW clone must be byte-for-byte identical to
// the original under every accessor, not just Equal.
func TestCacheCloneEqualDeep(t *testing.T) {
	orig, m := testCache(t)
	touch(orig, 3, 2)
	clone, _ := cloneOver(orig, m)
	for e := 0; e < orig.Entries(); e++ {
		if orig.Valid(e) != clone.Valid(e) {
			t.Fatalf("entry %d: validity differs", e)
		}
		a, b := orig.PeekEntryData(e), clone.PeekEntryData(e)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("entry %d byte %d: %#x vs %#x", e, i, a[i], b[i])
			}
		}
	}
	if orig.Stats != clone.Stats {
		t.Error("stats not carried over")
	}
}

// TestCacheConvergedEquality: Equal must see content, not block identity —
// two caches that privatised the same set with identical writes are equal.
func TestCacheConvergedEquality(t *testing.T) {
	orig, m := testCache(t)
	touch(orig, 2, 1)
	a, _ := cloneOver(orig, m)
	b, _ := cloneOver(orig, m)
	// Identical access sequences on both sides privatise the same sets
	// with the same contents: different blocks, equal bytes.
	touch(a, 2, 5)
	touch(b, 2, 5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("converged clones compare unequal")
	}
	if !a.EqualLive(b) {
		t.Fatal("converged clones not live-equal")
	}
}

// TestCacheEqualLiveInvalidLine: flips behind an invalid line must fail
// Equal but pass EqualLive, across the copy-on-write boundary.
func TestCacheEqualLiveInvalidLine(t *testing.T) {
	orig, m := testCache(t)
	touch(orig, 1, 1)
	a, _ := cloneOver(orig, m)
	b, _ := cloneOver(orig, m)
	invalid := -1
	for e := 0; e < a.Entries(); e++ {
		if !a.Valid(e) {
			invalid = e
			break
		}
	}
	if invalid < 0 {
		t.Skip("no invalid line after the touch pattern")
	}
	a.FlipBit(invalid, 3)
	if a.Equal(b) {
		t.Error("Equal must see a flip behind an invalid line")
	}
	if !a.EqualLive(b) {
		t.Error("EqualLive must ignore a flip behind an invalid line")
	}
}

// TestCacheEntryDataPrivatises: writing through EntryData on a clone must
// never reach the frozen generation the siblings read.
func TestCacheEntryDataPrivatises(t *testing.T) {
	orig, m := testCache(t)
	touch(orig, 2, 1)
	a, _ := cloneOver(orig, m)
	b, _ := cloneOver(orig, m)
	e := 0
	for ; e < a.Entries() && !a.Valid(e); e++ {
	}
	if e == a.Entries() {
		t.Fatal("no valid entry")
	}
	before := b.PeekEntryData(e)[0]
	a.EntryData(e)[0] ^= 0xff
	if got := b.PeekEntryData(e)[0]; got != before {
		t.Fatalf("EntryData write on one clone reached its sibling: %#x -> %#x", before, got)
	}
	if orig.PeekEntryData(e)[0] != before {
		t.Fatal("EntryData write on a clone reached the original")
	}
}

// hierarchy is one machine's memory, L2 and L1, as cpu.Core wires them.
type hierarchy struct {
	l1, l2 *Cache
	m      *Memory
}

// clone clones the whole hierarchy, freezing h's caches and memory.
func (h hierarchy) clone() hierarchy {
	m := h.m.Clone()
	l2 := h.l2.Clone(m)
	return hierarchy{h.l1.Clone(l2), l2, m}
}

// frozenBytes is a deep copy of every entry's data bytes.
func frozenBytes(c *Cache) [][]byte {
	out := make([][]byte, c.Entries())
	for e := range out {
		out[e] = bytes.Clone(c.PeekEntryData(e))
	}
	return out
}

// sameBytes reports whether c's data still equals the deep copy ref.
func sameBytes(c *Cache, ref [][]byte) bool {
	for e, b := range ref {
		if !bytes.Equal(c.PeekEntryData(e), b) {
			return false
		}
	}
	return true
}

// sharesBytes reports whether caches a and b read set s's data from the
// same backing array.
func sharesBytes(a, b *Cache, s int) bool {
	return &a.blockRO(s).data[0] == &b.blockRO(s).data[0]
}

// TestCacheReadHitSharesBytes: a read hit on a clone privatises the set's
// tags (LRU stamps the line) but leaves its data aliasing the parent's
// frozen bytes, in the L1 and in an L2 serving an L1 miss through ReadLine.
func TestCacheReadHitSharesBytes(t *testing.T) {
	l1, l2, m := newTestHierarchy()
	h := hierarchy{l1, l2, m}
	for a := uint64(0); a < 1<<12; a += 64 {
		h.l1.Access(a, 8, false, a)
	}
	h.l1.Access(1<<12, 8, false, 1) // evicts 0x0 from the L1; the L2 keeps it
	c := h.clone()

	e, _ := c.l1.Access(0x40, 8, false, 2)
	s := e / c.l1.ways
	if tags, bytes := c.l1.PrivateSets(); tags != 1 || bytes != 0 {
		t.Fatalf("L1 read hit privatised %d sets' tags and %d sets' bytes, want 1 and 0", tags, bytes)
	}
	if c.l1.blockRO(s) == h.l1.blockRO(s) || !sharesBytes(c.l1, h.l1, s) {
		t.Error("L1 read hit: the set's tags must be private and its bytes the parent's frozen ones")
	}

	c.l1.Access(0x0, 8, false, 3) // L1 miss, L2 read hit through ReadLine
	if tags, bytes := c.l2.PrivateSets(); tags != 1 || bytes != 0 {
		t.Fatalf("L2 read hit privatised %d sets' tags and %d sets' bytes, want 1 and 0", tags, bytes)
	}
	if !sharesBytes(c.l2, h.l2, c.l2.set(0)) {
		t.Error("L2 read hit copied the set's bytes")
	}
}

// TestCacheWritesPrivatiseBytes: each way a cache writes its data array —
// a fill, a victim's write-back into the level below, WriteLine, EntryData
// and FlipBit — copies the set's bytes first, so neither the parent nor a
// sibling clone that read the same set sees the write.
func TestCacheWritesPrivatiseBytes(t *testing.T) {
	const dirtyAddr = 0x200
	cases := []struct {
		name  string
		level func(hierarchy) *Cache // the cache whose bytes the write lands in
		addr  uint64                 // the line written
		write func(t *testing.T, c hierarchy)
	}{
		{"fill", func(h hierarchy) *Cache { return h.l1 }, 1 << 13, func(t *testing.T, c hierarchy) {
			c.l1.Access(1<<13, 8, false, 10)
		}},
		{"write-back", func(h hierarchy) *Cache { return h.l2 }, dirtyAddr, func(t *testing.T, c hierarchy) {
			// Evict the dirty line with lines of its L1 set that live in
			// other L2 sets, so the write-back is the L2 set's only write.
			for a, n := uint64(dirtyAddr), 0; n < c.l1.ways; {
				a += uint64(c.l1.sets * c.l1.lineSz)
				if c.l2.set(a) != c.l2.set(dirtyAddr) {
					c.l1.Access(a, 8, false, a)
					n++
				}
			}
			if c.l1.Stats.Writebacks == 0 {
				t.Fatal("no write-back")
			}
		}},
		{"WriteLine", func(h hierarchy) *Cache { return h.l2 }, 0x100, func(t *testing.T, c hierarchy) {
			c.l2.WriteLine(0x100, bytes.Repeat([]byte{0xa5}, 64), 10)
		}},
		{"EntryData", func(h hierarchy) *Cache { return h.l1 }, 0x100, func(t *testing.T, c hierarchy) {
			e, _ := c.l1.Probe(0x100)
			c.l1.EntryData(e)[3] ^= 0xff
		}},
		{"FlipBit", func(h hierarchy) *Cache { return h.l1 }, 0x100, func(t *testing.T, c hierarchy) {
			e, _ := c.l1.Probe(0x100)
			c.l1.FlipBit(e, 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l1, l2, m := newTestHierarchy()
			parent := hierarchy{l1, l2, m}
			for a := uint64(0); a < 1<<14; a++ {
				m.WriteBytes(a, []byte{byte(a*7 + 1)})
			}
			for a := uint64(0); a < 1<<10; a += 64 {
				parent.l1.Access(a, 8, false, a)
			}
			e, _ := parent.l1.Access(dirtyAddr, 8, true, 100)
			parent.l1.EntryData(e)[0] = 0x5a
			a, sib := parent.clone(), parent.clone()
			cache := tc.level(parent)
			s := cache.set(tc.addr)
			// A sibling reads a line resident in the same set first, so it
			// too holds the set's tags privately over the frozen bytes.
			w := slices.IndexFunc(cache.blockRO(s).lines, func(ln line) bool { return ln.valid })
			tc.level(sib).Access(cache.lineAddr(s, cache.blockRO(s).lines[w].tag), 8, false, 200)
			if !sharesBytes(tc.level(sib), cache, s) {
				t.Fatal("a read hit copied the sibling's bytes")
			}
			ref := frozenBytes(cache)
			before := bytes.Clone(tc.level(a).blockRO(s).data)

			tc.write(t, a)
			got := tc.level(a)
			if !got.priv[s].ownData || sharesBytes(got, cache, s) {
				t.Fatalf("%s did not copy set %d's bytes before writing them", tc.name, s)
			}
			if bytes.Equal(got.blockRO(s).data, before) {
				t.Fatalf("%s did not change set %d's bytes", tc.name, s)
			}
			if !sameBytes(cache, ref) {
				t.Errorf("%s on a clone reached the parent's frozen bytes", tc.name)
			}
			if !sameBytes(tc.level(sib), ref) {
				t.Errorf("%s on a clone reached a sibling clone's bytes", tc.name)
			}
		})
	}
}

// TestZeroGenerationStaysZero: every new cache of a geometry reads the one
// shared zero generation; writes through two fresh caches must leave a
// third all-invalid and all-zero.
func TestZeroGenerationStaysZero(t *testing.T) {
	a, _ := testCache(t)
	b, _ := testCache(t)
	touch(a, 3, 1)
	touch(b, 2, 5)
	for e := 0; e < a.Entries(); e += 7 {
		a.FlipBit(e, 1)
		b.EntryData(e)[2] = 0xff
	}
	c, _ := testCache(t)
	for e := 0; e < c.Entries(); e++ {
		if c.Valid(e) {
			t.Fatalf("entry %d of a fresh cache is valid", e)
		}
		for i, v := range c.PeekEntryData(e) {
			if v != 0 {
				t.Fatalf("entry %d byte %d of a fresh cache is %#x", e, i, v)
			}
		}
	}
	if &c.shared[0] != &a.shared[0] {
		// a froze nothing, so it still reads the zero generation's table.
		t.Error("fresh caches of one geometry do not share the zero generation")
	}
}

// TestCacheCloneCostsTouchedChunks: recycling a shell clone of a cache that
// touched k sets since its last freeze allocates the top table and the k
// chunks holding them, not a table of every set (16 KiB for these 1,024
// sets when a freeze rebuilt every set pointer).
func TestCacheCloneCostsTouchedChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m := NewMemory(0, 1<<24, 80)
	c := NewCache(CacheConfig{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 16, HitLatency: 12}, m)
	shell := c.Clone(m.Clone())
	chunkBytes := uint64(unsafe.Sizeof(chunk{}))
	topBytes := uint64(len(c.shared)) * uint64(unsafe.Sizeof((*chunk)(nil)))
	for _, k := range []int{1, 3, 8} {
		for i := 0; i < k; i++ {
			// One set in each of k chunks, at a stride of 64 sets' lines.
			c.Access(uint64(i)*chunkSets*2*uint64(c.lineSz), 8, i%2 == 0, uint64(i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.CloneInto(shell, m)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if bound := 2 * (topBytes + uint64(k)*chunkBytes); got > bound {
			t.Errorf("clone after %d touched sets allocated %d bytes, bound %d", k, got, bound)
		}
	}
}

// TestRecycledShellReusesBlocks: a shell recycled by CloneInto or Reset
// keeps the blocks it privatised, none of them frozen, so a clone that
// re-privatises the same sets, tags and bytes both, allocates nothing for
// them, and reads and writes exactly as a fresh clone does.
func TestRecycledShellReusesBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	orig, m := testCache(t)
	touch(orig, 3, 1)
	frozen, fm := cloneOver(orig, m)
	shell, sm := cloneOver(frozen, fm)
	touch(shell, 2, 5)
	if tags, bytes := shell.PrivateSets(); tags == 0 || bytes == 0 {
		t.Fatalf("the shell privatised %d sets' tags and %d sets' bytes, want some of both", tags, bytes)
	}
	for _, reset := range []bool{false, true} {
		if reset {
			shell.Reset()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frozen.CloneInto(shell, sm)
		touch(shell, 2, 5)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
			t.Errorf("reset %v: re-privatising the shell's sets allocated %d bytes", reset, got)
		}
		want, _ := cloneOver(frozen, fm)
		touch(want, 2, 5)
		if !shell.Equal(want) {
			t.Errorf("reset %v: the recycled shell diverged from a fresh clone", reset)
		}
	}
	// A frozen block is never recycled: the shell, frozen by a Clone, hands
	// its blocks to the generation and keeps none to reuse.
	refBytes := frozenBytes(shell)
	snap, _ := cloneOver(shell, sm)
	frozen.CloneInto(shell, sm)
	touch(shell, 2, 9)
	if !sameBytes(snap, refBytes) {
		t.Error("a block the shell donated to a generation was written after recycling")
	}
}

// TestUntouchedCloneSharesSlotTable: a clone that never privatises a set
// (a checkpoint rung, only ever cloned from) reads through the shared
// all-nil slot table, so a clone of the 1,024-set L2 allocates a few
// hundred bytes, not its 12 KiB slot table and set list; its first write
// gives it its own, and the shared one stays all nil.
func TestUntouchedCloneSharesSlotTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m := NewMemory(0, 1<<24, 80)
	c := NewCache(CacheConfig{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 16, HitLatency: 12}, m)
	c.Access(0, 8, true, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rung := c.Clone(m)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(c.sets)*8 {
		t.Errorf("an untouched clone allocated %d bytes, as much as a slot table of %d sets", got, c.sets)
	}
	shared := &rung.priv[0]
	fork := rung.Clone(m)
	fork.Access(64, 8, true, 2)
	if &fork.priv[0] == shared || &rung.priv[0] != shared {
		t.Error("a write did not give the clone its own slot table, or the rung lost the shared one")
	}
	for s, b := range noPrivate(c.sets) {
		if b != nil {
			t.Fatalf("set %d of the shared slot table was written", s)
		}
	}
}

// TestCacheConcurrentClones: many goroutines cloning one frozen snapshot
// (into fresh caches and recycled shells), reading it and writing into their
// clones must never observe each other's writes, while each also builds
// fresh caches of a geometry no other test uses, so its zero generation is
// first built concurrently. Run under -race this also proves Clone of a
// frozen cache and the zero generation read-only.
func TestCacheConcurrentClones(t *testing.T) {
	orig, m := testCache(t)
	touch(orig, 3, 1)
	frozen, fm := cloneOver(orig, m)
	ref, _ := cloneOver(frozen, fm)
	refBytes := frozenBytes(frozen)
	fresh := CacheConfig{Name: "Z", Size: 2 << 10, LineSize: 32, Ways: 2, HitLatency: 1}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, 3*workers)
	zeros := make([]*chunk, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, salt uint64) {
			defer wg.Done()
			// Read every resident line (tags private, bytes shared), then
			// read and write a salted pattern.
			work := func(c *Cache) {
				for e := 0; e < c.Entries(); e++ {
					if c.Valid(e) {
						c.Access(c.lineAddr(e/c.ways, c.blockRO(e / c.ways).lines[e%c.ways].tag), 8, false, 1)
					}
				}
				touch(c, 2, salt)
			}
			c, _ := cloneOver(frozen, fm)
			touch(c, 2, salt)
			frozen.CloneInto(c, fm.Clone()) // recycle the shell
			work(c)
			want, _ := cloneOver(frozen, fm)
			work(want)
			if !c.Equal(want) {
				errs <- fmt.Errorf("salt %d: concurrent clone diverged from its serial twin", salt)
			}
			c.Reset() // as a pool retires it, then reuse its blocks again
			frozen.CloneInto(c, fm.Clone())
			work(c)
			if !c.Equal(want) {
				errs <- fmt.Errorf("salt %d: concurrent clone on a reset shell diverged from its serial twin", salt)
			}
			z := NewCache(fresh, NewMemory(0, 1<<20, 1))
			zeros[w] = z.shared[0]
			touch(z, 2, salt)
			z.FlipBit(0, 1)
		}(w, uint64(w+2))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !frozen.Equal(ref) || !sameBytes(frozen, refBytes) {
		t.Fatal("concurrent clone writers mutated the frozen snapshot")
	}
	z := NewCache(fresh, nil)
	for w, top := range zeros {
		if top != z.shared[0] {
			t.Errorf("worker %d built its own zero generation", w)
		}
	}
	for e := 0; e < z.Entries(); e++ {
		if z.Valid(e) || !bytes.Equal(z.PeekEntryData(e), make([]byte, fresh.LineSize)) {
			t.Fatalf("entry %d of the zero generation was written", e)
		}
	}
}
