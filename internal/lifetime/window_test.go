package lifetime

import (
	"reflect"
	"testing"
)

type pendingRead struct {
	s  StructureID
	ev Event
}

// FuzzReorderWindow drives the tracer's emit/reserve/commit/drop calls from
// a byte string over a tiny geometry — commits in any order, drops, reads
// left pending at the end, ring growth while the window straddles the
// ring's wrap — against a reference that knows nothing of the window: the
// driver's own record of the events that resolved, handed to the offline
// Build, which sorts them by Seq.
func FuzzReorderWindow(f *testing.F) {
	f.Add([]byte{0, 0x00, 0xff, 0x30, 0x01, 0x43, 0x00}) // write, read, commit
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geometry := func(s StructureID) (entries, entryBits int) { return 4 >> s, 64 }
		tr := NewTracer(StructRF, StructSQ)
		tr.Attach(geometry)
		tr.ring = make([]slot, 4) // growth within a few ops, not a few hundred
		openAsEOF := data[0]&1 != 0

		var (
			ref     [NumStructures]Log // resolved events, arrival order
			pending []pendingRead      // reserved reads, Seq set
			seq     uint64             // the Seqs the tracer must be assigning
			dropped uint64
		)
		emit := func(s StructureID, ev Event) {
			tr.Emit(s, ev)
			if s == StructL1D {
				return // untracked: no Seq, no event
			}
			seq++
			ev.Seq = seq
			ref[s].Append(ev)
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			s := StructureID(op >> 4 % 3)
			entries, _ := geometry(s)
			entry, mask := int32(int(arg>>6)%entries), uint64(arg)|1
			switch op & 15 {
			case 0, 1:
				emit(s, Event{Cycle: tr.Cycles, Entry: entry, Mask: mask, Kind: EvWrite, RIP: int32(arg)})
			case 2:
				emit(s, Event{Cycle: tr.Cycles, Entry: entry, Mask: mask, Kind: EvInvalidate})
			case 3:
				emit(s, Event{Cycle: tr.Cycles, Entry: entry, Mask: mask, Kind: EvWBRead, RIP: WBRip})
			case 4, 5, 6:
				got := tr.Reserve(s, tr.Cycles, entry, mask)
				if s == StructL1D {
					if got != 0 {
						t.Fatalf("Reserve on an untracked structure returned Seq %d", got)
					}
					continue
				}
				seq++
				if got != seq {
					t.Fatalf("Reserve returned Seq %d, want %d", got, seq)
				}
				pending = append(pending, pendingRead{s, Event{Seq: seq, Cycle: tr.Cycles, Entry: entry, Mask: mask, Kind: EvRead}})
			case 7, 8, 9, 10:
				if len(pending) == 0 {
					continue
				}
				k := int(arg) % len(pending)
				s, ev := pending[k].s, pending[k].ev
				pending[k] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				if op&15 == 10 {
					tr.Drop(ev.Seq)
					dropped++
					continue
				}
				ev.CommitSeq, ev.RIP, ev.UPC = uint64(i), int32(arg), arg&3
				tr.Commit(ev.Seq, ev.CommitSeq, ev.RIP, ev.UPC)
				ref[s].Append(ev)
			default:
				tr.Cycles += uint64(arg & 7)
			}
		}
		dropped += uint64(len(pending)) // still in flight when the run ends
		tr.Finish(openAsEOF)

		if tr.Dropped != dropped {
			t.Errorf("Dropped = %d, want %d", tr.Dropped, dropped)
		}
		var emitted uint64
		for _, s := range []StructureID{StructRF, StructSQ} {
			emitted += uint64(len(ref[s].Events))
			if !reflect.DeepEqual(tr.Log(s).Events, ref[s].Events) {
				t.Fatalf("%v log:\n got  %+v\n want %+v", s, tr.Log(s).Events, ref[s].Events)
			}
			entries, entryBits := geometry(s)
			want := build(&ref[s], s, entries, entryBits/8, tr.Cycles, openAsEOF)
			if got := tr.Analysis(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v analysis:\n got  %+v\n want %+v\n log %+v", s, got, want, ref[s].Events)
			}
		}
		if tr.Emitted != emitted {
			t.Errorf("Emitted = %d, want %d", tr.Emitted, emitted)
		}
		if tr.Analysis(StructL1D) != nil {
			t.Error("an untracked structure has an analysis")
		}
	})
}
