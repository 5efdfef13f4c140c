package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
)

// extremeArtifact exercises every corner of the packed arrays: values at
// both ends of their ranges, deltas that run backwards and wrap, every
// pseudo-RIP, nil next to empty.
func extremeArtifact() *Artifact {
	const top = ^uint64(0)
	return &Artifact{
		Workload: "extremes",
		Structures: []StructureTrace{{
			Structure: lifetime.StructRF, Entries: 1, EntryBytes: 8,
			Events: []lifetime.Event{
				{Seq: top, Cycle: top - 1, CommitSeq: top, Entry: math.MaxInt32, Mask: ^uint64(0), RIP: lifetime.InitRip, Kind: lifetime.EvWrite, UPC: 255},
				{Seq: 0, Cycle: 0, Entry: math.MinInt32, Mask: 0, RIP: lifetime.WBRip, Kind: lifetime.EvWBRead},
				{Seq: top / 2, Cycle: 1 << 63, CommitSeq: 1, Entry: -1, Mask: 1, RIP: math.MinInt32, Kind: lifetime.EventKind(255)},
				{Seq: top / 2, Cycle: 1 << 63, Entry: 0, Mask: 0x80, RIP: math.MaxInt32, Kind: lifetime.EvInvalidate},
			},
			Intervals: []lifetime.Interval{
				{Entry: -1, Mask: ^uint64(0), Start: top, End: 0, EndSeq: top, RIP: lifetime.EOFRip, UPC: 255},
				{Entry: math.MaxInt32, Mask: 0, Start: 0, End: top, EndSeq: 0, RIP: lifetime.WBRip},
			},
		}, {
			Structure: lifetime.StructSQ, Events: []lifetime.Event{}, Intervals: nil,
		}, {
			Structure: lifetime.StructL1D, Events: nil, Intervals: []lifetime.Interval{},
		}},
		Golden: cpu.RunResult{Halt: cpu.HaltOK, Cycles: top},
		Branches: []lifetime.BranchRec{
			{CommitSeq: top, RIP: math.MinInt32, Target: -1, Taken: true},
			{CommitSeq: 0, RIP: math.MaxInt32, Target: lifetime.InitRip},
		},
	}
}

// TestArtifactExtremes: the hand-built corners round-trip exactly, as do
// an artifact with no structures and one whose every slice is nil.
func TestArtifactExtremes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	noBranches := sampleArtifact()
	noBranches.Branches = []lifetime.BranchRec{}
	for name, a := range map[string]*Artifact{
		"extremes":       extremeArtifact(),
		"no structures":  {Workload: "qsort"},
		"nil everywhere": {Workload: "qsort", Structures: []StructureTrace{{Structure: lifetime.StructRF}}},
		"empty branches": noBranches,
	} {
		k := Key{Workload: a.Workload, Structures: a.structureSet()}
		if err := s.Put(k, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, ok := s.Get(k)
		if !ok || !reflect.DeepEqual(got, a) {
			t.Errorf("%s: round trip not exact: ok=%v\n got %+v\nwant %+v", name, ok, got, a)
		}
	}
}

// TestArtifactBodyRejects: a body cut anywhere, or with a byte added, is
// an error, never a panic or a partial artifact; so are a header length
// that claims more than the body holds and array lengths that claim more
// than the bytes left could hold (refused before the slice is made), and an
// artifact with more traces than there are structures is refused on the way
// in.
func TestArtifactBodyRejects(t *testing.T) {
	body, err := encodeArtifact(extremeArtifact())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(body); n++ {
		if _, err := decodeArtifact(body[:n]); err == nil {
			t.Fatalf("body cut to %d of %d bytes decoded", n, len(body))
		}
	}
	if _, err := decodeArtifact(append(body[:len(body):len(body)], 0)); err == nil {
		t.Fatal("body with a trailing byte decoded")
	}
	if _, err := decodeArtifact(append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, body...)); err == nil {
		t.Fatal("header length past the end decoded")
	}
	for name, h := range map[string]*artifactHeader{
		"events":    {Structures: []traceHeader{{Events: 1 << 40}}},
		"intervals": {Structures: []traceHeader{{Events: -1, Intervals: 1 << 40}}},
		"branches":  {Branches: 1 << 40},
		"negative":  {Branches: -2},
		"traces":    {Structures: make([]traceHeader, lifetime.NumStructures+1)},
	} {
		if _, err := decodeArrays(h, body); err == nil {
			t.Fatalf("a header with lying %s decoded", name)
		}
	}
	four := &Artifact{Structures: make([]StructureTrace, lifetime.NumStructures+1)}
	if _, err := encodeArtifact(four); err == nil {
		t.Fatal("an artifact with more traces than structures was encoded")
	}
}

// splitHeader decodes a body's header as decodeArtifact does, for tests
// that drive decodeArrays on its own.
func splitHeader(body []byte) (*artifactHeader, []byte, bool) {
	n, k := binary.Uvarint(body)
	if k <= 0 || n > uint64(len(body)-k) {
		return nil, nil, false
	}
	rd := bytes.NewReader(body[k : k+int(n)])
	h := new(artifactHeader)
	if gob.NewDecoder(rd).Decode(h) != nil || rd.Len() != 0 {
		return nil, nil, false
	}
	return h, body[k+int(n):], true
}

// FuzzArtifactBody: decoding arbitrary bytes never panics, and the packed
// arrays never allocate more than 8x the bytes they are decoded from (an
// element takes at least 4-8 bytes on disk and 24-48 in memory). The gob
// header is encoding/gob's to bound: it allocates at most one lying length,
// capped at 10 MiB, before it fails. A body that decodes re-encodes to one
// that decodes to an equal artifact. The seeds are the sealed sha/RF golden
// artifact in testdata plus the committed corpus.
func FuzzArtifactBody(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sha-rf.artifact"))
	if err != nil {
		f.Fatal(err)
	}
	body, err := unseal(fileMagic, raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		const (
			slack    = 1 << 10
			gobLimit = 10<<20 + 256<<10
		)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := decodeArtifact(body)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(8*len(body)+gobLimit) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(body), got)
		}
		if h, rest, ok := splitHeader(body); ok {
			// The least of three runs: TotalAlloc also counts what the
			// fuzzing engine's goroutines allocate meanwhile.
			least := ^uint64(0)
			for range 3 {
				runtime.ReadMemStats(&before)
				decodeArrays(h, rest)
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > uint64(8*len(rest)+slack) {
				t.Fatalf("%d bytes of packed arrays allocated %d bytes", len(rest), least)
			}
		}
		if err != nil {
			return
		}
		again, err := encodeArtifact(a)
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		b, err := decodeArtifact(again)
		if err != nil {
			t.Fatalf("re-encoded body does not decode: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("re-encoding changed the artifact:\n got %+v\nwant %+v", b, a)
		}
	})
}
