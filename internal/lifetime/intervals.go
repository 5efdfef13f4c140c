package lifetime

import (
	"math/bits"
	"sort"
	"sync"
)

// Interval is one ACE-like vulnerable interval (paper §3.1.1): the bytes in
// Mask of Entry are vulnerable in (Start, End] — a flip strictly after
// Start and no later than End is consumed by the committed read at End.
// The interval is attributed to the reading instruction (RIP, UPC); EndSeq
// is the reader's program-order sequence, identifying the dynamic instance
// (used by grouping step 2 and by the Relyzer comparison).
type Interval struct {
	Entry  int32
	Mask   uint64
	Start  uint64
	End    uint64
	EndSeq uint64
	RIP    int32 // WBRip for dirty-writeback reads
	UPC    uint8
}

// Analysis holds the vulnerable intervals of one structure for one program
// run, with an index for O(log n) fault lookup.
type Analysis struct {
	Structure  StructureID
	Entries    int
	EntryBytes int
	Cycles     uint64
	Intervals  []Interval

	// Byte b of entry e is covered by the intervals
	// indexIDs[indexOff[k]:indexOff[k+1]], End ascending, where k is e
	// when perEntry (every interval covers its whole entry) and
	// e*EntryBytes+b otherwise.
	indexOff []int32
	indexIDs []int32
	perEntry bool
}

// EOFRip is the pseudo-RIP attributed to lifetimes still open when a
// truncated run is cut (Table 4): a fault inside one is still live at the
// cut, so it groups separately from any real reader.
const EOFRip int32 = -2

// Build derives the vulnerable intervals of structure s from its event
// log: a copy of the events, sorted into occurrence (Seq) order, fed to the
// same state machine the Tracer's reorder window feeds while the run
// happens. It is the offline reference of that online path
// (Tracer.Analysis), and what analyses a log that outlived its tracer.
func Build(log *Log, s StructureID, entries, entryBytes int, cycles uint64) *Analysis {
	return build(log, s, entries, entryBytes, cycles, false)
}

// BuildTruncated is Build for a run cut at cycles: segments still open at
// the cut become intervals ending at the cut attributed to EOFRip, since a
// fault in them is live (Unknown) rather than provably masked.
func BuildTruncated(log *Log, s StructureID, entries, entryBytes int, cycles uint64) *Analysis {
	return build(log, s, entries, entryBytes, cycles, true)
}

func build(log *Log, s StructureID, entries, entryBytes int, cycles uint64, openAsEOF bool) *Analysis {
	events := make([]Event, len(log.Events))
	copy(events, log.Events)
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	m := newMachine(s, entries, entryBytes)
	for i := range events {
		m.apply(&events[i])
	}
	return m.finish(cycles, openAsEOF)
}

// machine is the ACE-like state machine of one structure. Events must be
// applied in Seq order — the order the bits were physically touched, not
// the order readers commit: a younger reader may issue first and commit
// second. It opens a segment at each write, emits a vulnerable interval at
// each committed read (chaining read-to-read intervals, per the paper's
// modified ACE definition), and discards unread segments at overwrites,
// invalidations and end of run.
//
// The state is per (entry, byte), but an entry whose bytes all agree —
// all open since one start, or all closed — keeps it once: an event on
// the whole entry then costs O(1) and emits at most one whole-entry
// interval. Nearly every RF event covers its whole register. An event on
// part of an entry splits it into per-byte state; a whole-entry write or
// invalidate joins it again.
type machine struct {
	a     *Analysis
	whole uint64 // the mask of every byte of an entry

	// Per entry: its state, and while it is entryOpen the start of the
	// segment all its bytes have open.
	state []uint8
	start []uint64

	// Per (entry, byte) of a split entry: the start of the byte's open
	// segment, and whether one is open.
	openStart []uint64
	valid     []bool
	groups    byteGroups

	// The n intervals emitted so far, chunkLen to a chunk.
	chunks []*chunk
	n      int
}

// The states of an entry.
const (
	entryClosed uint8 = iota // no byte has a segment open
	entryOpen                // every byte has the segment since start open
	entrySplit               // per-byte state
)

func newMachine(s StructureID, entries, entryBytes int) *machine {
	n := entries * entryBytes
	return &machine{
		a:         &Analysis{Structure: s, Entries: entries, EntryBytes: entryBytes},
		whole:     wholeMask(entryBytes),
		state:     make([]uint8, entries),
		start:     make([]uint64, entries),
		openStart: make([]uint64, n),
		valid:     make([]bool, n),
	}
}

// wholeMask is the mask of every byte of an entry of entryBytes bytes (a
// shift by 64 is 0, so a 64-byte line's is all ones).
func wholeMask(entryBytes int) uint64 { return uint64(1)<<uint(entryBytes) - 1 }

// A machine emits its intervals into chunks, and finish copies them out
// once into an exact-size Analysis.Intervals: a doubling slice allocates
// about twice their size on its way up, and ends up to twice too large.
// The chunks go back to spare for any machine of the process to reuse.
// spare keeps at most maxSpare (12 MB, more than the largest built-in
// analysis fills); a sync.Pool would drop them at garbage collections, and
// what a run allocates would no longer repeat to the byte.
const (
	chunkLen = 1024
	maxSpare = 256
)

type chunk [chunkLen]Interval

var spare struct {
	sync.Mutex
	chunks []*chunk
}

func newChunk() *chunk {
	spare.Lock()
	defer spare.Unlock()
	n := len(spare.chunks)
	if n == 0 {
		return new(chunk)
	}
	c := spare.chunks[n-1]
	spare.chunks[n-1] = nil
	spare.chunks = spare.chunks[:n-1]
	return c
}

func recycle(chunks []*chunk) {
	spare.Lock()
	defer spare.Unlock()
	keep := min(len(chunks), maxSpare-len(spare.chunks))
	spare.chunks = append(spare.chunks, chunks[:keep]...)
}

func (m *machine) push(iv Interval) {
	if m.n%chunkLen == 0 {
		m.chunks = append(m.chunks, newChunk())
	}
	m.chunks[m.n/chunkLen][m.n%chunkLen] = iv
	m.n++
}

// emit records the interval the read ev ends on the bytes in mask, open
// since start — unless it is zero-length (a same-cycle write and read),
// which no flip can hit.
func (m *machine) emit(ev *Event, mask, start uint64) {
	if start < ev.Cycle {
		m.push(Interval{Entry: ev.Entry, Mask: mask, Start: start, End: ev.Cycle,
			EndSeq: ev.CommitSeq, RIP: ev.RIP, UPC: ev.UPC})
	}
}

// byteGroups merges the bytes of one entry that share a segment start into
// one mask per start.
type byteGroups struct {
	n      int
	starts [64]uint64
	masks  [64]uint64
}

func (g *byteGroups) add(start uint64, b int) {
	for j := 0; j < g.n; j++ {
		if g.starts[j] == start {
			g.masks[j] |= 1 << uint(b)
			return
		}
	}
	g.starts[g.n], g.masks[g.n] = start, 1<<uint(b)
	g.n++
}

func (m *machine) apply(ev *Event) {
	e := ev.Entry
	switch {
	case ev.Mask != m.whole:
		m.split(e)
	case ev.Kind == EvWrite:
		m.state[e], m.start[e] = entryOpen, ev.Cycle
		return
	case ev.Kind == EvInvalidate:
		m.state[e] = entryClosed
		return
	case m.state[e] == entryClosed:
		return // a read of bytes never written: nothing vulnerable
	case m.state[e] == entryOpen:
		m.emit(ev, m.whole, m.start[e])
		m.start[e] = ev.Cycle // chain the next read-to-read interval
		return
	}
	base := int(e) * m.a.EntryBytes
	switch ev.Kind {
	case EvWrite:
		for mask := ev.Mask; mask != 0; mask &= mask - 1 {
			i := base + bits.TrailingZeros64(mask)
			m.openStart[i] = ev.Cycle
			m.valid[i] = true
		}
	case EvInvalidate:
		for mask := ev.Mask; mask != 0; mask &= mask - 1 {
			m.valid[base+bits.TrailingZeros64(mask)] = false
		}
	case EvRead, EvWBRead:
		g := &m.groups
		g.n = 0
		for mask := ev.Mask; mask != 0; mask &= mask - 1 {
			b := bits.TrailingZeros64(mask)
			if !m.valid[base+b] {
				continue // byte never written; nothing vulnerable
			}
			g.add(m.openStart[base+b], b)
			m.openStart[base+b] = ev.Cycle // chain the next read-to-read interval
		}
		for j := 0; j < g.n; j++ {
			m.emit(ev, g.masks[j], g.starts[j])
		}
	}
}

// split hands entry e's state to each of its bytes, unless they have it.
func (m *machine) split(e int32) {
	if m.state[e] == entrySplit {
		return
	}
	base := int(e) * m.a.EntryBytes
	for b := base; b < base+m.a.EntryBytes; b++ {
		m.openStart[b] = m.start[e]
		m.valid[b] = m.state[e] == entryOpen
	}
	m.state[e] = entrySplit
}

// finish closes the run at cycles and returns the indexed analysis; with
// openAsEOF the segments still open become EOFRip intervals ending there.
func (m *machine) finish(cycles uint64, openAsEOF bool) *Analysis {
	a := m.a
	a.Cycles = cycles
	for e := 0; openAsEOF && e < a.Entries; e++ {
		m.split(int32(e))
		base := e * a.EntryBytes
		g := &m.groups
		g.n = 0
		for b := 0; b < a.EntryBytes; b++ {
			if m.valid[base+b] && m.openStart[base+b] < cycles {
				g.add(m.openStart[base+b], b)
			}
		}
		for j := 0; j < g.n; j++ {
			m.push(Interval{
				Entry: int32(e), Mask: g.masks[j], Start: g.starts[j],
				End: cycles, EndSeq: ^uint64(0), RIP: EOFRip,
			})
		}
	}
	if m.n > 0 {
		a.Intervals = make([]Interval, m.n)
		for i, c := range m.chunks {
			copy(a.Intervals[i*chunkLen:], c[:])
		}
	}
	recycle(m.chunks)
	m.chunks = nil
	a.buildIndex()
	return a
}

// buildIndex lays the id lists out in one backing array: a counting pass
// sizes each run, a second pass fills it. When every interval covers its
// whole entry, as every RF interval does, one run per entry serves all of
// its bytes; otherwise each (entry, byte) has its own. Intervals are
// emitted in Seq order and Seq order implies non-decreasing cycle, so
// every run is End-ascending, which is what Find's binary search needs.
func (a *Analysis) buildIndex() {
	whole := wholeMask(a.EntryBytes)
	a.perEntry = true
	for i := range a.Intervals {
		if a.Intervals[i].Mask != whole {
			a.perEntry = false
			break
		}
	}
	n := a.Entries
	if !a.perEntry {
		n *= a.EntryBytes
	}
	a.indexOff = make([]int32, n+1)
	for i := range a.Intervals {
		base, keys := a.indexKeys(&a.Intervals[i])
		for ; keys != 0; keys &= keys - 1 {
			a.indexOff[base+1+bits.TrailingZeros64(keys)]++
		}
	}
	for i := 0; i < n; i++ {
		a.indexOff[i+1] += a.indexOff[i]
	}
	a.indexIDs = make([]int32, a.indexOff[n])
	next := make([]int32, n)
	copy(next, a.indexOff)
	for id := range a.Intervals {
		base, keys := a.indexKeys(&a.Intervals[id])
		for ; keys != 0; keys &= keys - 1 {
			i := base + bits.TrailingZeros64(keys)
			a.indexIDs[next[i]] = int32(id)
			next[i]++
		}
	}
}

// indexKeys returns the index runs an interval belongs to, as the first
// run of its entry and a mask of runs from there.
func (a *Analysis) indexKeys(iv *Interval) (base int, keys uint64) {
	if a.perEntry {
		return int(iv.Entry), 1
	}
	return int(iv.Entry) * a.EntryBytes, iv.Mask
}

// Rehydrate reconstructs an Analysis from previously derived intervals —
// the deserialization path of the golden-run artifact cache
// (internal/store). The lookup index is rebuilt; the result is
// indistinguishable from the Build that originally produced the intervals.
func Rehydrate(s StructureID, entries, entryBytes int, cycles uint64, intervals []Interval) *Analysis {
	a := &Analysis{
		Structure:  s,
		Entries:    entries,
		EntryBytes: entryBytes,
		Cycles:     cycles,
		Intervals:  intervals,
	}
	a.buildIndex()
	return a
}

// Find returns the id of the vulnerable interval covering a flip of the
// given byte of entry at cycle, or ok=false when the flip is provably
// masked (the ACE-like pruning of MeRLiN's first phase).
func (a *Analysis) Find(entry int32, byteIdx int, cycle uint64) (id int32, ok bool) {
	i := int(entry)
	if !a.perEntry {
		i = i*a.EntryBytes + byteIdx
	}
	lst := a.indexIDs[a.indexOff[i]:a.indexOff[i+1]]
	lo := sort.Search(len(lst), func(i int) bool { return a.Intervals[lst[i]].End >= cycle })
	if lo == len(lst) {
		return 0, false
	}
	iv := &a.Intervals[lst[lo]]
	if iv.Start < cycle && cycle <= iv.End {
		return lst[lo], true
	}
	return 0, false
}

// VulnerableByteCycles sums (End-Start) x bytes over all intervals: the
// total vulnerable byte-cycles of the structure.
func (a *Analysis) VulnerableByteCycles() uint64 {
	var total uint64
	for _, iv := range a.Intervals {
		total += (iv.End - iv.Start) * uint64(bits.OnesCount64(iv.Mask))
	}
	return total
}

// AVF returns the ACE-like architectural vulnerability factor: vulnerable
// byte-cycles over total byte-cycles (paper §4.4.3.3, computed as in
// Mukherjee et al. [15]).
func (a *Analysis) AVF() float64 {
	denom := float64(a.Entries) * float64(a.EntryBytes) * float64(a.Cycles)
	if denom == 0 {
		return 0
	}
	return float64(a.VulnerableByteCycles()) / denom
}
