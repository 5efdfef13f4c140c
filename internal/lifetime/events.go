// Package lifetime implements MeRLiN's ACE-like analysis (paper §3.1.1):
// it collects the raw write/read/invalidate event streams of the tracked
// hardware structures during a fault-free run and derives the vulnerable
// intervals of every (entry, byte), each annotated with the static
// instruction (RIP) and micro-op (uPC) whose committed read ends it.
package lifetime

import (
	"fmt"
	"strings"
	"sync"
)

// StructureID names a fault-injection / lifetime-tracking target.
type StructureID uint8

// The three structures evaluated in the paper (§4.1).
const (
	StructRF  StructureID = iota // physical integer register file
	StructSQ                     // store queue data field
	StructL1D                    // L1 data cache data array
	NumStructures
)

var structNames = [NumStructures]string{"RF", "SQ", "L1D"}

// String returns the structure's short name.
func (s StructureID) String() string {
	if int(s) < len(structNames) {
		return structNames[s]
	}
	return "?"
}

// ParseStructure maps a structure name ("RF", "SQ", "L1D", in any case) to
// its StructureID. It is the single parser behind every user-facing
// structure knob: CLI flags, daemon requests, and experiment filters.
func ParseStructure(name string) (StructureID, error) {
	for s, n := range structNames {
		if strings.EqualFold(name, n) {
			return StructureID(s), nil
		}
	}
	return 0, fmt.Errorf("unknown structure %q (want RF, SQ, or L1D)", name)
}

// MarshalText renders the structure as its short name, so JSON carrying a
// StructureID reads "RF"/"SQ"/"L1D" instead of a bare int.
func (s StructureID) MarshalText() ([]byte, error) {
	if int(s) >= len(structNames) {
		return nil, fmt.Errorf("cannot marshal unknown structure %d", uint8(s))
	}
	return []byte(structNames[s]), nil
}

// UnmarshalText parses a structure name case-insensitively, round-tripping
// MarshalText.
func (s *StructureID) UnmarshalText(text []byte) error {
	v, err := ParseStructure(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// EventKind classifies a lifetime event.
type EventKind uint8

// Event kinds.
const (
	// EvWrite: the masked bytes were (re)written. Opens a lifetime
	// segment; any prior unread segment becomes non-vulnerable.
	EvWrite EventKind = iota
	// EvRead: a committed read consumed the masked bytes; ends a
	// vulnerable interval attributed to (RIP, UPC).
	EvRead
	// EvWBRead: a dirty-line writeback read the bytes on their way to the
	// next memory level; ends a vulnerable interval attributed to the
	// WBRip pseudo-instruction.
	EvWBRead
	// EvInvalidate: the bytes left the structure unread (clean eviction,
	// entry freed); closes the segment non-vulnerably.
	EvInvalidate
)

// WBRip is the pseudo-RIP attributed to dirty-writeback reads, which have no
// associated program instruction.
const WBRip int32 = -1

// InitRip is the pseudo-RIP attributed to the cycle-0 writes that seed the
// architectural register file at reset (AttachTracer): the value was never
// produced by a program instruction.
const InitRip int32 = -3

// Event is one lifetime event of an entry. Seq is the global occurrence
// order (assigned when the bits were physically touched), which breaks ties
// within a cycle deterministically.
//
// RIP/UPC attribute the event to a static program location. For reads they
// name the committed consumer (or WBRip for dirty writebacks); for writes
// they name the producing µop — the register-writeback or store-drain that
// deposited the bytes (InitRip for the reset-time architectural seeds,
// 0/unattributed for L1D fills, which have no single producing µop). The
// static dataflow cross-check (internal/guestflow) keys its governing-write
// liveness argument off these write stamps.
type Event struct {
	Seq       uint64
	Cycle     uint64
	CommitSeq uint64 // program-order seq of the committing reader (EvRead)
	Entry     int32
	Mask      uint64 // byte mask within the entry (bit i = byte i)
	RIP       int32  // reading (EvRead/EvWBRead) or writing (EvWrite) instruction
	Kind      EventKind
	UPC       uint8
}

// Log accumulates the events of one structure in arrival order: immediate
// events as they happen, committed reads when their reader commits. Seq,
// not position, is the occurrence order.
type Log struct {
	Events []Event
}

// Append adds an event. The backing array doubles (grow).
func (l *Log) Append(ev Event) { l.Events = append(grow(l.Events), ev) }

// grow returns s with room for one more element, doubling a full backing
// array. A recorded run appends millions of events, and append's
// quarter-step growth past 256 elements copies such a slice about five
// times over on its way up.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	grown := make([]T, len(s), max(1024, 2*cap(s)))
	copy(grown, s)
	return grown
}

// BranchRec is one committed control-flow decision, recorded for the
// Relyzer control-equivalence comparison (§4.4.4).
type BranchRec struct {
	CommitSeq uint64 // program-order seq of the branch µop
	RIP       int32
	Target    int32 // next RIP actually followed
	Taken     bool
}

// Tracer observes the tracked structures during one fault-free run: through
// the reorder window of window.go it derives their vulnerable intervals
// while the run happens. A recording tracer (NewTracer) also keeps every
// structure's lifetime event log and the committed branch trace; a golden
// tracer (NewGoldenTracer) keeps neither, and replays the run the first
// time either is asked for.
type Tracer struct {
	seq      uint64 // last Seq reserved
	track    [NumStructures]bool
	logs     [NumStructures]*Log // nil: tracked but not recorded, or untracked
	Branches []BranchRec         // a recording tracer's; nil on a golden one (BranchTrace)
	Cycles   uint64              // total run cycles; set by the run harness

	// The reorder window (window.go): Seq q owns ring[q&(len(ring)-1)]
	// while head <= q <= seq.
	ring     []slot
	head     uint64 // oldest Seq not yet applied to its machine
	machines [NumStructures]*machine
	analyses [NumStructures]*Analysis

	// A golden tracer's logs and branch trace: the first Log or
	// BranchTrace call runs replay once on a recording tracer of the same
	// structures and keeps it as replayed.
	replay     func(*Tracer)
	replayOnce sync.Once
	replayed   *Tracer

	// Deterministic work counters of the run.
	Emitted    uint64 // events resolved
	Dropped    uint64 // reserved reads whose reader never committed
	WindowPeak int    // most Seqs the window held at once
}

// NewTracer returns a tracer tracking and recording the listed structures:
// Log(s) is the event log of the run it observed.
func NewTracer(track ...StructureID) *Tracer {
	t := &Tracer{head: 1}
	for _, s := range track {
		t.track[s] = true
		t.logs[s] = &Log{}
	}
	return t
}

// NewGoldenTracer returns a tracer tracking the listed structures without
// recording their event logs or the branch trace, which a golden run would
// append millions of records to and nothing on the campaign path reads.
// The first Log or BranchTrace call calls replay with a NewTracer of the
// same structures — replay must run the same deterministic program from
// reset with it attached — and both serve that tracer's records from then
// on, to any number of goroutines.
func NewGoldenTracer(replay func(*Tracer), track ...StructureID) *Tracer {
	t := &Tracer{head: 1, replay: replay}
	for _, s := range track {
		t.track[s] = true
	}
	return t
}

// Log returns the event log for s, or nil if s is untracked. On a golden
// tracer the first call replays the run.
func (t *Tracer) Log(s StructureID) *Log {
	if t.replay == nil || !t.track[s] {
		return t.logs[s]
	}
	return t.recorded().logs[s]
}

// BranchTrace returns the committed branch trace of the run. On a golden
// tracer the first call replays the run (the same replay as Log's).
func (t *Tracer) BranchTrace() []BranchRec {
	if t.replay == nil {
		return t.Branches
	}
	return t.recorded().Branches
}

// recorded returns the recording tracer of a golden tracer's replay,
// running the replay on the first call.
func (t *Tracer) recorded() *Tracer {
	t.replayOnce.Do(func() {
		var track []StructureID
		for s, on := range t.track {
			if on {
				track = append(track, StructureID(s))
			}
		}
		t.replayed = NewTracer(track...)
		t.replay(t.replayed)
	})
	return t.replayed
}

// RecordBranch appends a committed branch outcome; a golden tracer keeps
// none (BranchTrace).
func (t *Tracer) RecordBranch(commitSeq uint64, rip, target int32, taken bool) {
	if t.replay != nil {
		return
	}
	t.Branches = append(grow(t.Branches), BranchRec{CommitSeq: commitSeq, RIP: rip, Target: target, Taken: taken})
}
