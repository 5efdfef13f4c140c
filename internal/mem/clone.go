package mem

import "slices"

// freeze folds any private pages into a frozen pool shared with future
// clones. A frozen pool is never mutated (later freezes build a fresh
// merged pool), which keeps snapshots safe for concurrent readers: calling
// freeze on an already-frozen memory is a read-only no-op, so any number
// of goroutines may Clone one frozen snapshot at once.
func (m *Memory) freeze() {
	if len(m.pages) == 0 && m.shared != nil {
		return
	}
	merged := make(map[uint64]*[pageSize]byte, len(m.shared)+len(m.pages))
	for pn, p := range m.shared {
		merged[pn] = p
	}
	for pn, p := range m.pages {
		merged[pn] = p
	}
	m.shared = merged
	m.pages = make(map[uint64]*[pageSize]byte)
}

// Clone returns a copy-on-write snapshot of the memory. The current pages
// are frozen into a shared pool referenced by both the original and the
// clone; each side privatises a page only when it next writes it. A clone
// costs O(resident pages) pointer copies when the original has written
// since its last Clone (the merged pool is rebuilt) and O(1) when it has
// not — never a deep copy of the mapped bytes.
func (m *Memory) Clone() *Memory {
	m.freeze()
	return &Memory{
		pages:   make(map[uint64]*[pageSize]byte),
		shared:  m.shared,
		lo:      m.lo,
		hi:      m.hi,
		Latency: m.Latency,
	}
}

// CloneInto is Clone targeting an existing Memory shell (a retired clone
// being recycled by a pool): the shell's page map is reused instead of
// reallocated. Every field of n is overwritten; nothing about the shell's
// previous life is trusted.
func (m *Memory) CloneInto(n *Memory) {
	m.freeze()
	if n.pages == nil {
		n.pages = make(map[uint64]*[pageSize]byte)
	} else {
		clear(n.pages)
	}
	n.shared = m.shared
	n.lo, n.hi, n.Latency = m.lo, m.hi, m.Latency
}

// Reset drops every page reference — private and shared — while keeping
// the page map's allocation for reuse. A reset memory reads as unmapped;
// it is only meaningful on a retired clone shell about to be rebuilt by
// CloneInto, so an idle pooled shell does not pin a campaign's frozen
// snapshot lineage.
func (m *Memory) Reset() {
	clear(m.pages)
	m.shared = nil
}

// ResidentBytes estimates the memory's footprint: every reachable page
// counted at full page size. Pages shared with other clones are counted
// here too, so summing ResidentBytes over a snapshot lineage overestimates
// — callers budgeting memory (the daemon's snapshot cache) get a
// conservative bound, never an undercount.
func (m *Memory) ResidentBytes() int64 {
	return int64(len(m.pages)+len(m.shared)) * pageSize
}

// freeze folds any private set blocks into a frozen generation shared with
// future clones. Like Memory.freeze, it is a read-only no-op on an
// already-frozen cache, so frozen snapshots clone concurrently without
// synchronisation. Private blocks are donated to the generation by
// pointer: a freeze copies the top table and each chunk holding a private
// set, O(touched chunks) pointers, never a byte. A donated block that never
// wrote its bytes lets go of the spare buffer it may carry from the free
// list.
func (c *Cache) freeze() {
	if len(c.touched) == 0 {
		return
	}
	top := slices.Clone(c.shared)
	for _, s := range c.touched {
		i := s >> chunkBits
		if top[i] == c.shared[i] {
			ch := *c.shared[i]
			top[i] = &ch
		}
		b := c.priv[s]
		if !b.ownData {
			b.buf = nil
		}
		top[i][s&(chunkSets-1)] = b
		c.priv[s] = nil
	}
	c.touched = c.touched[:0]
	c.shared = top
}

// recycle moves every private block, none of them ever frozen, to the free
// list, clearing only the listed slots. A free block keeps its lines and
// its own buffer, never the frozen bytes its data may alias.
func (c *Cache) recycle() {
	for _, s := range c.touched {
		b := c.priv[s]
		b.data, b.next, c.free = nil, c.free, b
		c.priv[s] = nil
	}
	c.touched = c.touched[:0]
}

// Clone returns a copy-on-write snapshot of the cache wired to the given
// next level: the current set blocks are frozen into a generation shared
// by both caches, and each side privatises a set only when it next touches
// it. Cloning a frozen snapshot (one not written since its last Clone)
// copies no set pointer and no byte. Event hooks are not copied; the owner
// must re-attach them.
func (c *Cache) Clone(below Backend) *Cache {
	c.freeze()
	n := &Cache{
		Cfg:      c.Cfg,
		Stats:    c.Stats,
		sets:     c.sets,
		lineSz:   c.lineSz,
		ways:     c.ways,
		offBits:  c.offBits,
		idxBits:  c.idxBits,
		shared:   c.shared,
		below:    below,
		lruClock: c.lruClock,
	}
	n.priv = noPrivate(c.sets)
	return n
}

// CloneInto is Clone targeting an existing Cache shell (a retired clone
// being recycled by a pool): a shell of identical geometry keeps its
// private slot table, clearing only the slots it lists, and moves its
// private blocks to its free list for the sets the clone will privatise.
// Every other field of n is overwritten by copy-over; hooks are cleared for
// the owner to re-attach.
func (c *Cache) CloneInto(n *Cache, below Backend) {
	c.freeze()
	if len(n.priv) == c.sets && n.ways == c.ways && n.lineSz == c.lineSz {
		n.recycle()
	} else {
		n.priv, n.touched, n.free = noPrivate(c.sets), nil, nil
	}
	n.Cfg = c.Cfg
	n.Stats = c.Stats
	n.sets, n.lineSz, n.ways = c.sets, c.lineSz, c.ways
	n.offBits, n.idxBits = c.offBits, c.idxBits
	n.shared = c.shared
	n.below = below
	n.lruClock = c.lruClock
	n.OnFill, n.OnEvict = nil, nil
}

// Reset drops every shared set-block reference while keeping the private
// slot table for reuse, moves the private blocks to the free list, and
// detaches the hooks and backend. Like Memory.Reset it leaves the cache
// unusable until the next CloneInto: its purpose is to stop an idle pooled
// shell from pinning the generations of the campaign that retired it. The
// shell keeps only blocks no generation holds, at most one per set.
func (c *Cache) Reset() {
	c.recycle()
	c.shared = nil
	c.below = nil
	c.OnFill, c.OnEvict = nil, nil
}

// FootprintBytes is the cache's worst-case resident size: the full data
// array plus line metadata, regardless of how much is currently shared
// with other clones. The daemon's snapshot cache budgets with it.
func (c *Cache) FootprintBytes() int64 {
	const lineMeta = 24 // tag + lru + flags, padded
	return int64(c.Cfg.Size) + int64(c.sets*c.ways)*lineMeta
}
