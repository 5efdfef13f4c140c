package lifetime

import (
	"math/bits"
	"sort"
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
// run, with a per-(entry, byte) index for O(log n) fault lookup.
type Analysis struct {
	Structure  StructureID
	Entries    int
	EntryBytes int
	Cycles     uint64
	Intervals  []Interval

	// Byte i = entry*EntryBytes+byte is covered by the intervals
	// indexIDs[indexOff[i]:indexOff[i+1]], End ascending.
	indexOff []int32
	indexIDs []int32
}

// EOFRip is the pseudo-RIP attributed to lifetimes still open when a
// truncated run is cut (Table 4): a fault inside one is still live at the
// cut, so it groups separately from any real reader.
const EOFRip int32 = -2

// Build derives the vulnerable intervals of structure s from its event
// log: a copy of the events, sorted into occurrence (Seq) order, fed to the
// same per-(entry, byte) state machine the Tracer's reorder window feeds
// while the run happens. It is the offline reference of that online path
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
type machine struct {
	a         *Analysis
	openStart []uint64 // per (entry, byte): start of the open segment
	valid     []bool   // per (entry, byte): a segment is open
	groups    byteGroups
}

func newMachine(s StructureID, entries, entryBytes int) *machine {
	n := entries * entryBytes
	return &machine{
		a:         &Analysis{Structure: s, Entries: entries, EntryBytes: entryBytes},
		openStart: make([]uint64, n),
		valid:     make([]bool, n),
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
	base := int(ev.Entry) * m.a.EntryBytes
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
			if g.starts[j] >= ev.Cycle {
				continue // zero-length (same-cycle write+read); not injectable
			}
			m.a.Intervals = append(m.a.Intervals, Interval{
				Entry:  ev.Entry,
				Mask:   g.masks[j],
				Start:  g.starts[j],
				End:    ev.Cycle,
				EndSeq: ev.CommitSeq,
				RIP:    ev.RIP,
				UPC:    ev.UPC,
			})
		}
	}
}

// finish closes the run at cycles and returns the indexed analysis; with
// openAsEOF the segments still open become EOFRip intervals ending there.
func (m *machine) finish(cycles uint64, openAsEOF bool) *Analysis {
	a := m.a
	a.Cycles = cycles
	for e := 0; openAsEOF && e < a.Entries; e++ {
		base := e * a.EntryBytes
		g := &m.groups
		g.n = 0
		for b := 0; b < a.EntryBytes; b++ {
			if m.valid[base+b] && m.openStart[base+b] < cycles {
				g.add(m.openStart[base+b], b)
			}
		}
		for j := 0; j < g.n; j++ {
			a.Intervals = append(a.Intervals, Interval{
				Entry: int32(e), Mask: g.masks[j], Start: g.starts[j],
				End: cycles, EndSeq: ^uint64(0), RIP: EOFRip,
			})
		}
	}
	a.buildIndex()
	return a
}

// buildIndex lays the per-(entry, byte) id lists out in one backing array:
// a counting pass sizes each byte's run, a second pass fills it. Intervals
// are emitted in Seq order and Seq order implies non-decreasing cycle, so
// every run is End-ascending, which is what Find's binary search needs.
func (a *Analysis) buildIndex() {
	n := a.Entries * a.EntryBytes
	a.indexOff = make([]int32, n+1)
	for i := range a.Intervals {
		iv := &a.Intervals[i]
		base := int(iv.Entry)*a.EntryBytes + 1
		for m := iv.Mask; m != 0; m &= m - 1 {
			a.indexOff[base+bits.TrailingZeros64(m)]++
		}
	}
	for i := 0; i < n; i++ {
		a.indexOff[i+1] += a.indexOff[i]
	}
	a.indexIDs = make([]int32, a.indexOff[n])
	next := make([]int32, n)
	copy(next, a.indexOff)
	for id := range a.Intervals {
		iv := &a.Intervals[id]
		base := int(iv.Entry) * a.EntryBytes
		for m := iv.Mask; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			a.indexIDs[next[i]] = int32(id)
			next[i]++
		}
	}
}

// Rehydrate reconstructs an Analysis from previously derived intervals —
// the deserialization path of the golden-run artifact cache
// (internal/store). The per-byte lookup index is rebuilt; the result is
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
	i := int(entry)*a.EntryBytes + byteIdx
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
