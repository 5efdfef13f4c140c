package mem

import "fmt"

// CacheConfig sizes a set-associative cache.
type CacheConfig struct {
	Name       string
	Size       int // total data bytes
	LineSize   int // bytes per line
	Ways       int
	HitLatency int
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.Size / (c.LineSize * c.Ways) }

// Validate reports a configuration error, if any.
func (c CacheConfig) Validate() error {
	switch {
	case c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0:
		return fmt.Errorf("mem: cache %s: non-positive geometry", c.Name)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("mem: cache %s: line size %d not a power of two", c.Name, c.LineSize)
	case c.Size%(c.LineSize*c.Ways) != 0:
		return fmt.Errorf("mem: cache %s: size %d not divisible by way size", c.Name, c.Size)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("mem: cache %s: sets %d not a power of two", c.Name, c.Sets())
	}
	return nil
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp; larger = more recent
}

// EvictKind describes why a line left the cache.
type EvictKind uint8

// Eviction kinds reported to OnEvict.
const (
	EvictClean EvictKind = iota // line dropped, contents discarded
	EvictDirty                  // line's bytes were read and written back
)

// setBlock is the copy-on-write unit of a Cache: one set's line metadata
// and data bytes. A block referenced from a frozen generation is never
// mutated — a cache privatises the block before its first write (true-LRU
// makes every access a metadata write, so a touched set is always private).
type setBlock struct {
	lines []line // ways entries
	data  []byte // ways*lineSize bytes
}

// Cache is one level of a write-back, write-allocate cache with true-LRU
// replacement. The data array is physically modelled: EntryData/FlipBit
// expose the storage targeted by fault injection, and the OnFill/OnEvict
// hooks let the lifetime tracker observe line turnover at (set, way)
// granularity.
//
// Storage is copy-on-write at set granularity, mirroring Memory's page
// scheme: Clone freezes the current blocks into a shared generation
// referenced by both caches, and each side privatises a set only when it
// next touches it. Frozen generations are never mutated, so a frozen
// snapshot may be cloned and read concurrently by many injection workers.
type Cache struct {
	Cfg   CacheConfig
	Stats CacheStats

	sets     int
	lineSz   int
	ways     int
	offBits  uint
	idxBits  uint
	priv     []*setBlock // per-set private (writable) blocks; nil = read via shared
	shared   []*setBlock // frozen generation, possibly shared with clones
	nPriv    int         // non-nil entries of priv (Clone fast path)
	below    Backend
	lruClock uint64

	// OnFill fires after a line is filled (whole line written), OnEvict
	// when a victim leaves. Hooks may be nil.
	OnFill  func(set, way int, cycle uint64)
	OnEvict func(set, way int, kind EvictKind, cycle uint64)
}

// NewCache builds a cache over the given next level. It panics on invalid
// geometry: configurations are static and produced by trusted code.
func NewCache(cfg CacheConfig, below Backend) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		Cfg:    cfg,
		sets:   cfg.Sets(),
		lineSz: cfg.LineSize,
		ways:   cfg.Ways,
		below:  below,
	}
	for c.offBits = 0; 1<<c.offBits < cfg.LineSize; c.offBits++ {
	}
	for c.idxBits = 0; 1<<c.idxBits < c.sets; c.idxBits++ {
	}
	// One arena for the initial generation: blocks are value-disjoint
	// slices of two backing arrays, so a fresh cache costs three
	// allocations regardless of set count.
	lines := make([]line, c.sets*c.ways)
	data := make([]byte, cfg.Size)
	blocks := make([]setBlock, c.sets)
	c.priv = make([]*setBlock, c.sets)
	way := c.ways
	wayBytes := c.ways * c.lineSz
	for s := 0; s < c.sets; s++ {
		blocks[s] = setBlock{
			lines: lines[s*way : (s+1)*way : (s+1)*way],
			data:  data[s*wayBytes : (s+1)*wayBytes : (s+1)*wayBytes],
		}
		c.priv[s] = &blocks[s]
	}
	c.nPriv = c.sets
	return c
}

// blockRO returns set s's block for reading: the private copy if this
// cache owns one, else the frozen shared block.
func (c *Cache) blockRO(s int) *setBlock {
	if b := c.priv[s]; b != nil {
		return b
	}
	return c.shared[s]
}

// blockRW returns a private, writable block for set s, privatising the
// frozen copy on first touch after a Clone.
func (c *Cache) blockRW(s int) *setBlock {
	if b := c.priv[s]; b != nil {
		return b
	}
	src := c.shared[s]
	b := &setBlock{
		lines: make([]line, c.ways),
		data:  make([]byte, c.ways*c.lineSz),
	}
	copy(b.lines, src.lines)
	copy(b.data, src.data)
	c.priv[s] = b
	c.nPriv++
	return b
}

// lineData returns way w's data bytes within a block.
func (c *Cache) lineData(b *setBlock, w int) []byte {
	return b.data[w*c.lineSz : (w+1)*c.lineSz]
}

// Entries returns the number of (set, way) slots; the lifetime tracker and
// fault injector address lines by entry = set*ways + way.
func (c *Cache) Entries() int { return c.sets * c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.lineSz }

// EntryData returns the live data bytes of an entry (a (set, way) slot).
// The returned slice aliases the cache's private storage; the entry's set
// is privatised, so writes through it never reach a shared snapshot. Use
// PeekEntryData for read-only access that leaves sharing intact.
func (c *Cache) EntryData(entry int) []byte {
	return c.lineData(c.blockRW(entry/c.ways), entry%c.ways)
}

// PeekEntryData returns the entry's data bytes read-only: the slice may
// alias a frozen generation shared with other caches and must not be
// written. State hashing and equality checks use it so that comparing
// snapshots never breaks their sharing.
func (c *Cache) PeekEntryData(entry int) []byte {
	return c.lineData(c.blockRO(entry/c.ways), entry%c.ways)
}

// FlipBit flips one bit of the physical data array: entry selects the
// (set, way) slot and bit indexes into its line (0 .. LineSize*8-1). This is
// the L1D fault-injection primitive: the flip lands whether or not the slot
// currently holds a valid line, just as a particle strike would.
func (c *Cache) FlipBit(entry, bit int) {
	c.EntryData(entry)[bit/8] ^= 1 << (bit % 8)
}

// Valid reports whether the entry currently holds a valid line.
func (c *Cache) Valid(entry int) bool {
	return c.blockRO(entry / c.ways).lines[entry%c.ways].valid
}

// EntryLine reports which line the entry holds, read-only: its base
// address, and whether it is valid and dirty (the address is meaningless
// when it is not valid). Like Probe and PeekEntryData it touches neither
// LRU state nor the copy-on-write sharing of the set.
func (c *Cache) EntryLine(entry int) (addr uint64, valid, dirty bool) {
	ln := &c.blockRO(entry / c.ways).lines[entry%c.ways]
	return c.lineAddr(entry/c.ways, ln.tag), ln.valid, ln.dirty
}

func (c *Cache) set(addr uint64) int    { return int(addr>>c.offBits) & (c.sets - 1) }
func (c *Cache) tag(addr uint64) uint64 { return addr >> (c.offBits + c.idxBits) }
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<(c.offBits+c.idxBits) | uint64(set)<<c.offBits
}

// lookupIn returns the way of b holding tag's line, or -1.
func (c *Cache) lookupIn(b *setBlock, tag uint64) int {
	for w := 0; w < c.ways; w++ {
		if ln := &b.lines[w]; ln.valid && ln.tag == tag {
			return w
		}
	}
	return -1
}

// victimIn picks the LRU way in b, preferring invalid ways.
func (c *Cache) victimIn(b *setBlock) int {
	best, bestLRU := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		ln := &b.lines[w]
		if !ln.valid {
			return w
		}
		if ln.lru < bestLRU {
			best, bestLRU = w, ln.lru
		}
	}
	return best
}

// fill brings addr's line into (set, way) of private block b, writing back
// a dirty victim. It returns the accumulated latency.
func (c *Cache) fill(b *setBlock, set, way int, tag uint64, cycle uint64) int {
	ln := &b.lines[way]
	lat := 0
	if ln.valid {
		c.Stats.Evictions++
		kind := EvictClean
		if ln.dirty {
			kind = EvictDirty
			c.Stats.Writebacks++
			lat += c.below.WriteLine(c.lineAddr(set, ln.tag), c.lineData(b, way), cycle)
		}
		if c.OnEvict != nil {
			c.OnEvict(set, way, kind, cycle)
		}
	}
	lat += c.below.ReadLine(c.lineAddr(set, tag), c.lineData(b, way), cycle)
	ln.valid, ln.dirty, ln.tag = true, false, tag
	if c.OnFill != nil {
		c.OnFill(set, way, cycle)
	}
	return lat
}

// Probe locates addr without touching cache state; it returns the entry
// index and whether the line is resident.
func (c *Cache) Probe(addr uint64) (entry int, hit bool) {
	set, tag := c.set(addr), c.tag(addr)
	w := c.lookupIn(c.blockRO(set), tag)
	if w < 0 {
		return -1, false
	}
	return set*c.ways + w, true
}

// Access performs a read or write of size bytes at addr (which must not
// cross a line boundary), allocating on miss. It returns the entry index
// that served the access and the total latency. For writes the line is
// marked dirty; data movement itself is done by the caller through
// EntryData so it can observe exact byte positions. True-LRU stamps the
// touched line even on read hits, so every access privatises its set.
func (c *Cache) Access(addr uint64, size int, write bool, cycle uint64) (entry int, latency int) {
	set, tag := c.set(addr), c.tag(addr)
	b := c.blockRW(set)
	way := c.lookupIn(b, tag)
	lat := c.Cfg.HitLatency
	if way < 0 {
		c.Stats.Misses++
		way = c.victimIn(b)
		lat += c.fill(b, set, way, tag, cycle)
	} else {
		c.Stats.Hits++
	}
	c.lruClock++
	b.lines[way].lru = c.lruClock
	if write {
		b.lines[way].dirty = true
	}
	return set*c.ways + way, lat
}

// Offset returns addr's byte offset within its line.
func (c *Cache) Offset(addr uint64) int { return int(addr) & (c.lineSz - 1) }

// ReadLine implements Backend, letting a Cache serve as the level below
// another cache (e.g. L2 under L1).
func (c *Cache) ReadLine(addr uint64, dst []byte, cycle uint64) int {
	e, lat := c.Access(addr, c.lineSz, false, cycle)
	copy(dst, c.EntryData(e))
	return lat
}

// WriteLine implements Backend.
func (c *Cache) WriteLine(addr uint64, src []byte, cycle uint64) int {
	e, lat := c.Access(addr, c.lineSz, true, cycle)
	copy(c.EntryData(e), src)
	return lat
}

// FlushAll writes every dirty line back to the level below. Used at program
// end so that memory holds the final architectural state. Sets with no
// dirty line are left untouched (and unprivatised).
func (c *Cache) FlushAll(cycle uint64) {
	for s := 0; s < c.sets; s++ {
		ro := c.blockRO(s)
		dirty := false
		for w := 0; w < c.ways; w++ {
			if ln := &ro.lines[w]; ln.valid && ln.dirty {
				dirty = true
				break
			}
		}
		if !dirty {
			continue
		}
		b := c.blockRW(s)
		for w := 0; w < c.ways; w++ {
			ln := &b.lines[w]
			if ln.valid && ln.dirty {
				c.below.WriteLine(c.lineAddr(s, ln.tag), c.lineData(b, w), cycle)
				ln.dirty = false
			}
		}
	}
}
