package lifetime

// The reorder window turns the order events become known in into the order
// they happened in. The core reserves a Seq the moment bits are physically
// touched, but a speculative read is only an event once its reader commits
// — possibly after younger reads and writes of the same bytes — and is no
// event at all if the reader is squashed. Every reserved Seq therefore owns
// one ring slot until it resolves, and resolved slots leave from the head,
// in Seq order, straight into their structure's state machine. A read
// resolves no later than its reader leaves the ROB, so the window holds a
// small multiple of the ROB size, whatever the length of the program.

const (
	slotPending  uint8 = iota // a read whose reader is still in flight
	slotResolved              // an event, ready to apply
	slotDropped               // a read whose reader was squashed: no event
)

type slot struct {
	ev    Event
	s     StructureID
	state uint8
}

// Attach sizes the state machine of every tracked structure; geometry
// returns a structure's entry count and bits per entry. The core calls it
// when the tracer is attached, before the first event.
func (t *Tracer) Attach(geometry func(StructureID) (entries, entryBits int)) {
	t.ring = make([]slot, 256)
	for s := StructureID(0); s < NumStructures; s++ {
		if t.logs[s] != nil {
			entries, entryBits := geometry(s)
			t.machines[s] = newMachine(s, entries, entryBits/8)
		}
	}
}

// reserve claims the next Seq and returns its slot, for the caller to fill.
func (t *Tracer) reserve() *slot {
	t.seq++
	n := int(t.seq-t.head) + 1
	if n > len(t.ring) {
		t.grow()
	}
	if n > t.WindowPeak {
		t.WindowPeak = n
	}
	return &t.ring[t.seq&uint64(len(t.ring)-1)]
}

func (t *Tracer) grow() {
	grown := make([]slot, 2*len(t.ring))
	for q := t.head; q < t.seq; q++ {
		grown[q&uint64(len(grown)-1)] = t.ring[q&uint64(len(t.ring)-1)]
	}
	t.ring = grown
}

// Emit records an event that is certain the moment it happens — a write,
// an invalidation, a writeback read, a store-queue drain. The tracer
// assigns ev.Seq. Events of untracked structures are ignored, and cost the
// caller no more than this check: Emit and Reserve inline.
func (t *Tracer) Emit(s StructureID, ev Event) {
	if l := t.logs[s]; l != nil {
		t.emit(s, l, ev)
	}
}

func (t *Tracer) emit(s StructureID, l *Log, ev Event) {
	sl := t.reserve()
	ev.Seq = t.seq
	sl.ev, sl.s, sl.state = ev, s, slotResolved
	l.Append(ev)
	t.Emitted++
	t.drain()
}

// Reserve records that a speculative reader touched the masked bytes of
// entry now, and returns the Seq that Commit or Drop must resolve — or 0,
// which no event carries, when s is untracked.
func (t *Tracer) Reserve(s StructureID, cycle uint64, entry int32, mask uint64) uint64 {
	if t.logs[s] == nil {
		return 0
	}
	return t.reserveRead(s, cycle, entry, mask)
}

func (t *Tracer) reserveRead(s StructureID, cycle uint64, entry int32, mask uint64) uint64 {
	sl := t.reserve()
	sl.ev = Event{Seq: t.seq, Cycle: cycle, Entry: entry, Mask: mask, Kind: EvRead}
	sl.s, sl.state = s, slotPending
	return t.seq
}

func (t *Tracer) pending(seq uint64) *slot {
	sl := &t.ring[seq&uint64(len(t.ring)-1)]
	if seq < t.head || sl.ev.Seq != seq || sl.state != slotPending {
		panic("lifetime: Seq resolved twice or never reserved")
	}
	return sl
}

// Commit turns the read reserved as seq into an event: its reader, the
// µop (rip, upc) with program-order sequence commitSeq, has committed.
func (t *Tracer) Commit(seq, commitSeq uint64, rip int32, upc uint8) {
	sl := t.pending(seq)
	sl.ev.CommitSeq, sl.ev.RIP, sl.ev.UPC = commitSeq, rip, upc
	sl.state = slotResolved
	t.logs[sl.s].Append(sl.ev)
	t.Emitted++
	t.drain()
}

// Drop forgets the read reserved as seq: its reader was squashed, and a
// squashed read ends no vulnerable interval (paper Fig 3).
func (t *Tracer) Drop(seq uint64) {
	t.pending(seq).state = slotDropped
	t.Dropped++
	t.drain()
}

// drain applies the resolved slots at the head of the window, in Seq order.
func (t *Tracer) drain() {
	mask := uint64(len(t.ring) - 1)
	for t.head <= t.seq {
		sl := &t.ring[t.head&mask]
		if sl.state == slotPending {
			return
		}
		if sl.state == slotResolved {
			t.machines[sl.s].apply(&sl.ev)
		}
		t.head++
	}
}

// Finish ends the run at t.Cycles: reads still in flight are dropped, the
// window empties, and every tracked structure's Analysis is complete. With
// openAsEOF (a run cut short) segments still open become EOFRip intervals,
// as BuildTruncated makes them.
func (t *Tracer) Finish(openAsEOF bool) {
	for ; t.head <= t.seq; t.head++ {
		switch sl := &t.ring[t.head&uint64(len(t.ring)-1)]; sl.state {
		case slotPending:
			t.Dropped++
		case slotResolved:
			t.machines[sl.s].apply(&sl.ev)
		}
	}
	for s, m := range t.machines {
		if m != nil {
			t.analyses[s] = m.finish(t.Cycles, openAsEOF)
		}
	}
	t.ring, t.machines = nil, [NumStructures]*machine{}
}

// Analysis returns the vulnerable intervals of s derived during the run —
// equal to Build (BuildTruncated) of Log(s) — or nil before Finish, for an
// untracked structure, and on a tracer rehydrated from the cache.
func (t *Tracer) Analysis(s StructureID) *Analysis { return t.analyses[s] }
