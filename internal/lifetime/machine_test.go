package lifetime

import (
	"math/bits"
	"reflect"
	"testing"
)

// refMachine is the interval machine without its per-entry fast path:
// every event walks its mask byte by byte, and the intervals go into a
// plain slice. It shares no per-entry state, chunk or index with machine,
// so machine is fuzzed against it.
type refMachine struct {
	entries, entryBytes int
	openStart           []uint64 // per (entry, byte): start of the open segment
	valid               []bool   // per (entry, byte): a segment is open
	groups              byteGroups
	intervals           []Interval
}

func newRefMachine(entries, entryBytes int) *refMachine {
	return &refMachine{
		entries:    entries,
		entryBytes: entryBytes,
		openStart:  make([]uint64, entries*entryBytes),
		valid:      make([]bool, entries*entryBytes),
	}
}

func (m *refMachine) apply(ev *Event) {
	base := int(ev.Entry) * m.entryBytes
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
				continue
			}
			g.add(m.openStart[base+b], b)
			m.openStart[base+b] = ev.Cycle
		}
		for j := 0; j < g.n; j++ {
			if g.starts[j] >= ev.Cycle {
				continue
			}
			m.intervals = append(m.intervals, Interval{
				Entry: ev.Entry, Mask: g.masks[j], Start: g.starts[j], End: ev.Cycle,
				EndSeq: ev.CommitSeq, RIP: ev.RIP, UPC: ev.UPC,
			})
		}
	}
}

func (m *refMachine) finish(cycles uint64, openAsEOF bool) []Interval {
	for e := 0; openAsEOF && e < m.entries; e++ {
		base := e * m.entryBytes
		g := &m.groups
		g.n = 0
		for b := 0; b < m.entryBytes; b++ {
			if m.valid[base+b] && m.openStart[base+b] < cycles {
				g.add(m.openStart[base+b], b)
			}
		}
		for j := 0; j < g.n; j++ {
			m.intervals = append(m.intervals, Interval{
				Entry: int32(e), Mask: g.masks[j], Start: g.starts[j],
				End: cycles, EndSeq: ^uint64(0), RIP: EOFRip,
			})
		}
	}
	return m.intervals
}

// FuzzIntervalMachine feeds the machine and refMachine one stream of
// writes, invalidates, reads and writeback reads — on 8-byte entries or
// 64-byte lines, whole-entry masks at least half the time, repeated up to
// 32 times so that a stream can fill more than one chunk — and requires
// equal intervals, and Find to answer every (entry, byte, cycle) as a scan
// of the reference's intervals does.
func FuzzIntervalMachine(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x05, 0x01, 0x40, 0x81, 0x23, 0x03, 0x20})
	f.Add([]byte{0xff, 0x00, 0x41, 0x80, 0x03, 0x01, 0x60, 0x82, 0x81, 0x11, 0xa0, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		const entries = 3
		openAsEOF := data[0]&1 != 0
		entryBytes := 8
		if data[0]&2 != 0 {
			entryBytes = 64
		}
		whole := wholeMask(entryBytes)
		m := newMachine(StructRF, entries, entryBytes)
		ref := newRefMachine(entries, entryBytes)
		var cycle, seq uint64
		for range 1 + int(data[0]>>3) {
			for i := 1; i+1 < len(data); i += 2 {
				op, arg := data[i], data[i+1]
				seq++
				ev := Event{
					Seq: seq, Cycle: cycle, CommitSeq: seq,
					Entry: int32(op>>2&3) % entries, Kind: EventKind(op & 3),
					RIP: int32(arg), UPC: arg & 3, Mask: whole,
				}
				if op&0x80 != 0 { // part of the entry
					shift := 0
					if entryBytes == 64 {
						shift = 8 * int(op>>4&7)
					}
					ev.Mask = (uint64(arg) | 1) << shift & whole
				}
				m.apply(&ev)
				ref.apply(&ev)
				cycle += uint64(arg >> 6)
			}
		}
		got := m.finish(cycle, openAsEOF)
		want := ref.finish(cycle, openAsEOF)
		if !reflect.DeepEqual(got.Intervals, want) {
			t.Fatalf("intervals:\n got  %+v\n want %+v", got.Intervals, want)
		}
		for e := range int32(entries) {
			for b := range entryBytes {
				// The reference's intervals on this byte are disjoint and
				// End-ascending: sweep them against every cycle.
				var ids []int32
				for id, iv := range want {
					if iv.Entry == e && iv.Mask&(1<<uint(b)) != 0 {
						ids = append(ids, int32(id))
					}
				}
				k := 0
				for c := uint64(0); c <= cycle+1; c++ {
					for k < len(ids) && want[ids[k]].End < c {
						k++
					}
					wantOK := k < len(ids) && want[ids[k]].Start < c
					id, ok := got.Find(e, b, c)
					if ok != wantOK || ok && id != ids[k] {
						t.Fatalf("Find(%d, %d, %d) = %d, %v; want %v (intervals %+v)", e, b, c, id, ok, wantOK, want)
					}
				}
			}
		}
	})
}
