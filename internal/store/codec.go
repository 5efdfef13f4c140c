package store

// This file is the artifact body of formatVersion 6. A gob header carries
// the small, irregular parts of an Artifact — the workload, the golden
// result, each trace's structure and geometry, and the length of each
// trace's intervals — and the intervals follow it packed by hand, one
// structure after another in header order. Nothing else is stored: not
// the event logs (StructureTrace.Events), the branch trace
// (Artifact.Branches) or the checkpoint schedule
// (Artifact.CheckpointCycles).
//
//	body     = uvarint(len(header)) ‖ gob(header) ‖ intervals*
//	interval = entry mask Δstart Δend ΔendSeq rip upc
//
// Δ is the zigzag varint of the wrapping difference from the same field of
// the previous interval (0 before the first): the intervals arrive in End
// order, so a delta is a byte or two, and any uint64 sequence, backwards
// steps included, still round-trips. rip is a zigzag varint (the
// pseudo-RIPs are negative); upc is one raw byte; the rest are plain
// uvarints.
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
	"math/bits"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
)

// artifactHeader is the gob-encoded head of an artifact body. An interval
// count is -1 for a nil slice, so the round trip keeps nil and empty apart.
type artifactHeader struct {
	Workload   string
	Golden     cpu.RunResult
	Structures []traceHeader
}

type traceHeader struct {
	Structure           lifetime.StructureID
	Entries, EntryBytes int
	Intervals           int
}

// The fewest bytes an encoded interval can take: one per field.
const minIntervalBytes = 7

// errCorrupt is every way a body can fail to decode. An artifact traces at
// most one of each structure, so more traces than structures is one too.
var errCorrupt = errors.New("corrupt artifact body")

func length[T any](s []T) int {
	if s == nil {
		return -1
	}
	return len(s)
}

// encodeArtifact renders the body of a behind front reserved bytes (Put
// seals the file in place there), into one buffer of exactly the size it
// takes: a first pass sizes the varints, a second writes them.
func encodeArtifact(a *Artifact, front int) ([]byte, error) {
	if len(a.Structures) > int(lifetime.NumStructures) {
		return nil, errCorrupt
	}
	h := artifactHeader{Workload: a.Workload, Golden: a.Golden, Structures: make([]traceHeader, len(a.Structures))}
	size := 0
	for i, t := range a.Structures {
		h.Structures[i] = traceHeader{t.Structure, t.Entries, t.EntryBytes, length(t.Intervals)}
		size += intervalsLen(t.Intervals)
	}
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&h); err != nil {
		return nil, err
	}
	size += front + uvarintLen(uint64(hdr.Len())) + hdr.Len()
	b := make([]byte, front, size)
	b = binary.AppendUvarint(b, uint64(hdr.Len()))
	b = append(b, hdr.Bytes()...)
	for _, t := range a.Structures {
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
	return b, nil
}

// intervalsLen is the encoded size of ivs, field by field as
// encodeArtifact writes them.
func intervalsLen(ivs []lifetime.Interval) int {
	n := 0
	var prevIv lifetime.Interval
	for _, iv := range ivs {
		n += uvarintLen(uint64(uint32(iv.Entry))) + uvarintLen(iv.Mask) +
			varintLen(int64(iv.Start-prevIv.Start)) + varintLen(int64(iv.End-prevIv.End)) +
			varintLen(int64(iv.EndSeq-prevIv.EndSeq)) + varintLen(int64(iv.RIP)) + 1
		prevIv = iv
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint(nil, x).
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// decodeArtifact parses a body written by encodeArtifact: the length-framed
// gob header, then the packed intervals behind it (decodeArrays).
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

// decodeArrays unpacks the intervals the header announces from rest, which
// they must use up exactly. A value wider than its field (an Entry or RIP
// past 32 bits) is truncated as a conversion would; the artifact that
// results re-encodes to a body that decodes to it again.
func decodeArrays(h *artifactHeader, rest []byte) (*Artifact, error) {
	if len(h.Structures) > int(lifetime.NumStructures) {
		return nil, errCorrupt
	}
	a := &Artifact{Workload: h.Workload, Golden: h.Golden}
	r := reader{b: rest}
	for _, th := range h.Structures {
		t := StructureTrace{Structure: th.Structure, Entries: th.Entries, EntryBytes: th.EntryBytes}
		t.Intervals = makeIntervals(&r, th.Intervals)
		var start, end, endSeq uint64
		for i := range t.Intervals {
			iv := &t.Intervals[i]
			iv.Entry, iv.Mask = int32(r.uvarint()), r.uvarint()
			start, end, endSeq = start+uint64(r.varint()), end+uint64(r.varint()), endSeq+uint64(r.varint())
			iv.Start, iv.End, iv.EndSeq, iv.RIP, iv.UPC = start, end, endSeq, int32(r.varint()), r.raw()
		}
		a.Structures = append(a.Structures, t)
	}
	if r.bad || r.off != len(r.b) {
		return nil, errCorrupt
	}
	return a, nil
}

// makeIntervals makes the n intervals a header announced (-1: a nil
// slice), but only if the bytes left could hold n of them.
func makeIntervals(r *reader, n int) []lifetime.Interval {
	if n < -1 || n > (len(r.b)-r.off)/minIntervalBytes {
		r.fail()
	}
	if n < 0 || r.bad {
		return nil
	}
	return make([]lifetime.Interval, n)
}

// reader consumes the packed intervals from b[off:]. Reading past the end
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
