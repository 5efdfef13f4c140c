package store

// This file is the artifact body of formatVersion 4. A gob header carries
// the small, irregular parts of an Artifact — the workload, the golden
// result, the checkpoint schedule, each trace's structure and geometry,
// and the length of every bulk array — and the three bulk arrays follow it
// packed by hand: each structure's event log and intervals, in header
// order, then the branch trace.
//
//	body     = uvarint(len(header)) ‖ gob(header) ‖ (events ‖ intervals)* ‖ branches
//	event    = Δseq Δcycle commitSeq entry mask rip kind upc
//	interval = entry mask Δstart Δend ΔendSeq rip upc
//	branch   = ΔcommitSeq rip target taken
//
// Δ is the zigzag varint of the wrapping difference from the same field of
// the previous element (0 before the first): the log arrives nearly in Seq
// order and the intervals in End order, so a delta is a byte or two, and
// any uint64 sequence, backwards steps included, still round-trips. rip and
// target are zigzag varints (the pseudo-RIPs are negative); kind, upc and
// taken are one raw byte; the rest are plain uvarints.
//
// The header stays gob: it is under a kilobyte, and a field added to
// cpu.RunResult reaches the file without a codec change. The registry's
// records are gob for the same reason.
//
// Decoding is safe on hostile input: every length is checked against the
// bytes that remain before its slice is made (each element takes at least
// one byte per field), truncation and trailing bytes are errors, and
// nothing panics. Get reports every such error as a miss.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
)

// artifactHeader is the gob-encoded head of an artifact body. The lengths
// of the packed arrays are -1 for a nil slice, so their round trip keeps
// nil and empty apart.
type artifactHeader struct {
	Workload         string
	Golden           cpu.RunResult
	CheckpointCycles []uint64
	Structures       []traceHeader
	Branches         int
}

type traceHeader struct {
	Structure           lifetime.StructureID
	Entries, EntryBytes int
	Events, Intervals   int
}

// The fewest bytes an encoded element can take: one per field.
const (
	minEventBytes    = 8
	minIntervalBytes = 7
	minBranchBytes   = 4
)

// errCorrupt is every way a body can fail to decode. An artifact traces at
// most one of each structure, so more traces than structures is one too.
var errCorrupt = errors.New("corrupt artifact body")

func length[T any](s []T) int {
	if s == nil {
		return -1
	}
	return len(s)
}

// encodeArtifact renders the body of a.
func encodeArtifact(a *Artifact) ([]byte, error) {
	if len(a.Structures) > int(lifetime.NumStructures) {
		return nil, errCorrupt
	}
	h := artifactHeader{Workload: a.Workload, Golden: a.Golden, CheckpointCycles: a.CheckpointCycles,
		Structures: make([]traceHeader, len(a.Structures)), Branches: length(a.Branches)}
	// A little over what the workloads' elements take (~11 B an event), so
	// the body is allocated once.
	size := 6 * len(a.Branches)
	for i, t := range a.Structures {
		h.Structures[i] = traceHeader{t.Structure, t.Entries, t.EntryBytes, length(t.Events), length(t.Intervals)}
		size += 12*len(t.Events) + 14*len(t.Intervals)
	}
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&h); err != nil {
		return nil, err
	}
	b := make([]byte, 0, binary.MaxVarintLen64+hdr.Len()+size)
	b = binary.AppendUvarint(b, uint64(hdr.Len()))
	b = append(b, hdr.Bytes()...)
	for _, t := range a.Structures {
		var prev lifetime.Event
		for _, e := range t.Events {
			b = binary.AppendVarint(b, int64(e.Seq-prev.Seq))
			b = binary.AppendVarint(b, int64(e.Cycle-prev.Cycle))
			b = binary.AppendUvarint(b, e.CommitSeq)
			b = binary.AppendUvarint(b, uint64(uint32(e.Entry)))
			b = binary.AppendUvarint(b, e.Mask)
			b = binary.AppendVarint(b, int64(e.RIP))
			b, prev = append(b, byte(e.Kind), e.UPC), e
		}
		var prevIv lifetime.Interval
		for _, iv := range t.Intervals {
			b = binary.AppendUvarint(b, uint64(uint32(iv.Entry)))
			b = binary.AppendUvarint(b, iv.Mask)
			b = binary.AppendVarint(b, int64(iv.Start-prevIv.Start))
			b = binary.AppendVarint(b, int64(iv.End-prevIv.End))
			b = binary.AppendVarint(b, int64(iv.EndSeq-prevIv.EndSeq))
			b = binary.AppendVarint(b, int64(iv.RIP))
			b, prevIv = append(b, iv.UPC), iv
		}
	}
	var commitSeq uint64
	for _, br := range a.Branches {
		b = binary.AppendVarint(b, int64(br.CommitSeq-commitSeq))
		b = binary.AppendVarint(b, int64(br.RIP))
		b = binary.AppendVarint(b, int64(br.Target))
		b, commitSeq = append(b, 0), br.CommitSeq
		if br.Taken {
			b[len(b)-1] = 1
		}
	}
	return b, nil
}

// decodeArtifact parses a body written by encodeArtifact: the length-framed
// gob header, then the packed arrays behind it (decodeArrays).
func decodeArtifact(body []byte) (*Artifact, error) {
	n, k := binary.Uvarint(body)
	if k <= 0 || n > uint64(len(body)-k) {
		return nil, errCorrupt
	}
	rd := bytes.NewReader(body[k : k+int(n)])
	h := new(artifactHeader)
	if err := gob.NewDecoder(rd).Decode(h); err != nil || rd.Len() != 0 {
		return nil, errCorrupt
	}
	return decodeArrays(h, body[k+int(n):])
}

// decodeArrays unpacks the arrays the header announces from rest, which
// they must use up exactly. A value wider than its field (an Entry or RIP
// past 32 bits) is truncated as a conversion would; the artifact that
// results re-encodes to a body that decodes to it again.
func decodeArrays(h *artifactHeader, rest []byte) (*Artifact, error) {
	if len(h.Structures) > int(lifetime.NumStructures) {
		return nil, errCorrupt
	}
	a := &Artifact{Workload: h.Workload, Golden: h.Golden, CheckpointCycles: h.CheckpointCycles}
	r := reader{b: rest}
	for _, th := range h.Structures {
		t := StructureTrace{Structure: th.Structure, Entries: th.Entries, EntryBytes: th.EntryBytes}
		t.Events = makeFit[lifetime.Event](&r, th.Events, minEventBytes)
		var seq, cycle uint64
		for i := range t.Events {
			seq, cycle = seq+uint64(r.varint()), cycle+uint64(r.varint())
			t.Events[i] = lifetime.Event{Seq: seq, Cycle: cycle, CommitSeq: r.uvarint(), Entry: int32(r.uvarint()),
				Mask: r.uvarint(), RIP: int32(r.varint()), Kind: lifetime.EventKind(r.raw()), UPC: r.raw()}
		}
		t.Intervals = makeFit[lifetime.Interval](&r, th.Intervals, minIntervalBytes)
		var start, end, endSeq uint64
		for i := range t.Intervals {
			iv := &t.Intervals[i]
			iv.Entry, iv.Mask = int32(r.uvarint()), r.uvarint()
			start, end, endSeq = start+uint64(r.varint()), end+uint64(r.varint()), endSeq+uint64(r.varint())
			iv.Start, iv.End, iv.EndSeq, iv.RIP, iv.UPC = start, end, endSeq, int32(r.varint()), r.raw()
		}
		a.Structures = append(a.Structures, t)
	}
	a.Branches = makeFit[lifetime.BranchRec](&r, h.Branches, minBranchBytes)
	var commitSeq uint64
	for i := range a.Branches {
		commitSeq += uint64(r.varint())
		a.Branches[i] = lifetime.BranchRec{CommitSeq: commitSeq, RIP: int32(r.varint()), Target: int32(r.varint()), Taken: r.raw() != 0}
	}
	if r.bad || r.off != len(r.b) {
		return nil, errCorrupt
	}
	return a, nil
}

// makeFit makes the n elements a header announced (-1: a nil slice), but
// only if the bytes left could hold n elements of at least size bytes.
func makeFit[T any](r *reader, n, size int) []T {
	if n < -1 || n > (len(r.b)-r.off)/size {
		r.fail()
	}
	if n < 0 || r.bad {
		return nil
	}
	return make([]T, n)
}

// reader consumes the packed arrays from b[off:]. Reading past the end
// sets bad and moves off to the end, so every later read fails too.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) fail() {
	r.bad, r.off = true, len(r.b)
}

func (r *reader) uvarint() uint64 {
	if r.off < len(r.b) && r.b[r.off] < 0x80 { // most deltas and entries
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// varint undoes binary.AppendVarint's zigzag.
func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) raw() byte {
	if r.off == len(r.b) {
		r.fail()
		return 0
	}
	r.off++
	return r.b[r.off-1]
}
