// Package lifetime implements MeRLiN's ACE-like analysis (paper §3.1.1):
// it collects the raw write/read/invalidate event streams of the tracked
// hardware structures during a fault-free run and derives the vulnerable
// intervals of every (entry, byte), each annotated with the static
// instruction (RIP) and micro-op (uPC) whose committed read ends it.
package lifetime

import (
	"fmt"
	"strings"
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

// Append adds an event. The backing array doubles: a golden run appends
// millions of events, and append's quarter-step growth past 256 elements
// copies the log five times over on its way up.
func (l *Log) Append(ev Event) {
	if len(l.Events) == cap(l.Events) {
		grown := make([]Event, len(l.Events), max(1024, 2*cap(l.Events)))
		copy(grown, l.Events)
		l.Events = grown
	}
	l.Events = append(l.Events, ev)
}

// BranchRec is one committed control-flow decision, recorded for the
// Relyzer control-equivalence comparison (§4.4.4).
type BranchRec struct {
	CommitSeq uint64 // program-order seq of the branch µop
	RIP       int32
	Target    int32 // next RIP actually followed
	Taken     bool
}

// Tracer observes the tracked structures during one fault-free run: it
// records their lifetime event logs and the committed branch trace, and —
// through the reorder window of window.go — derives their vulnerable
// intervals while the run happens. A nil per-structure log disables
// tracking of that structure.
type Tracer struct {
	seq      uint64 // last Seq reserved
	logs     [NumStructures]*Log
	Branches []BranchRec
	Cycles   uint64 // total run cycles; set by the run harness

	// The reorder window (window.go): Seq q owns ring[q&(len(ring)-1)]
	// while head <= q <= seq.
	ring     []slot
	head     uint64 // oldest Seq not yet applied to its machine
	machines [NumStructures]*machine
	analyses [NumStructures]*Analysis

	// Deterministic work counters of the run.
	Emitted    uint64 // events appended to the logs
	Dropped    uint64 // reserved reads whose reader never committed
	WindowPeak int    // most Seqs the window held at once
}

// NewTracer returns a tracer tracking the listed structures.
func NewTracer(track ...StructureID) *Tracer {
	t := &Tracer{head: 1}
	for _, s := range track {
		t.logs[s] = &Log{}
	}
	return t
}

// RehydrateTracerLogs reconstructs a Tracer from a cached golden trace (the
// deserialization path of the artifact cache in internal/store): the event
// logs, indexed by StructureID, plus the committed branch trace. Nil
// entries leave that structure untracked, exactly as if NewTracer had
// omitted it. The result serves the read-side uses of a recorded run — Log,
// Branches, re-running Build — but holds no Analysis: the cache stores the
// intervals themselves (Rehydrate).
func RehydrateTracerLogs(logs [NumStructures]*Log, branches []BranchRec, cycles uint64) *Tracer {
	return &Tracer{logs: logs, Branches: branches, Cycles: cycles}
}

// Log returns the event log for s, or nil if s is untracked.
func (t *Tracer) Log(s StructureID) *Log { return t.logs[s] }

// RecordBranch appends a committed branch outcome.
func (t *Tracer) RecordBranch(commitSeq uint64, rip, target int32, taken bool) {
	t.Branches = append(t.Branches, BranchRec{CommitSeq: commitSeq, RIP: rip, Target: target, Taken: taken})
}
