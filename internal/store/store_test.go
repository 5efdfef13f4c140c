package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"merlin/internal/cpu"
	"merlin/internal/lifetime"
)

func sampleKey() Key {
	return NewKey("qsort", cpu.DefaultConfig(), 500_000_000, lifetime.StructRF)
}

func sampleArtifact() *Artifact {
	return &Artifact{
		Workload: "qsort",
		Structures: []StructureTrace{{
			Structure:  lifetime.StructRF,
			Entries:    256,
			EntryBytes: 64,
			Intervals: []lifetime.Interval{
				{Entry: 3, Mask: 0xff, Start: 10, End: 20, EndSeq: 5, RIP: 42, UPC: 1},
			},
		}},
		Golden: cpu.RunResult{
			Halt:   cpu.HaltOK,
			Cycles: 12345,
			Output: []uint64{1, 2, 3, 0xdeadbeef},
			ExcLog: []uint32{7, 9},
		},
		Branches: []lifetime.BranchRec{
			{CommitSeq: 5, RIP: 42, Target: 43, Taken: true},
		},
		CheckpointCycles: []uint64{0, 4096, 8192},
	}
}

// TestRoundTrip is the core cache guarantee: what Preprocess stored is
// what a later campaign reads back, bit for bit.
func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := sampleKey()
	want := sampleArtifact()

	if _, ok := s.Get(k); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip not bit-identical:\n got %+v\nwant %+v", got, want)
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put / 0 errors", st)
	}
	if st.Entries != 1 || st.Bytes == 0 {
		t.Fatalf("stats disk totals = %+v, want 1 entry with nonzero bytes", st)
	}
}

// TestKeyID checks that the content address separates every key dimension
// and is stable for equal keys.
func TestKeyID(t *testing.T) {
	base := sampleKey()
	if base.ID() != sampleKey().ID() {
		t.Fatal("equal keys produced different IDs")
	}
	variants := []Key{
		NewKey("sha", base.CPU, base.Budget, lifetime.StructRF),
		NewKey(base.Workload, base.CPU.WithRF(128), base.Budget, lifetime.StructRF),
		NewKey(base.Workload, base.CPU, 1000, lifetime.StructRF),
		NewKey(base.Workload, base.CPU, base.Budget, lifetime.StructSQ),
		NewKey(base.Workload, base.CPU, base.Budget, lifetime.StructRF, lifetime.StructSQ),
		NewKey(base.Workload, base.CPU, base.Budget, lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D),
	}
	seen := map[string]bool{base.ID(): true}
	for _, v := range variants {
		if seen[v.ID()] {
			t.Fatalf("key %+v collides with a prior key", v)
		}
		seen[v.ID()] = true
	}
}

// TestKeyStructureSetCanonical: the structure set is a set — request
// order and duplicates must not split the cache, and hand-built keys must
// address the same artifact as NewKey-built ones.
func TestKeyStructureSetCanonical(t *testing.T) {
	base := NewKey("qsort", cpu.DefaultConfig(), 1000, lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D)
	same := []Key{
		NewKey("qsort", cpu.DefaultConfig(), 1000, lifetime.StructL1D, lifetime.StructSQ, lifetime.StructRF),
		NewKey("qsort", cpu.DefaultConfig(), 1000, lifetime.StructSQ, lifetime.StructRF, lifetime.StructL1D, lifetime.StructRF),
		{Workload: "qsort", CPU: cpu.DefaultConfig(), Budget: 1000,
			Structures: []lifetime.StructureID{lifetime.StructL1D, lifetime.StructRF, lifetime.StructSQ}},
	}
	for i, k := range same {
		if k.ID() != base.ID() {
			t.Fatalf("variant %d (%v) maps to a different ID than the canonical key", i, k.Structures)
		}
	}
}

// TestCorruptionIsAMiss: a flipped payload byte, a truncated file, and a
// wrong-magic file must all read as misses, never as wrong data.
func TestCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k := sampleKey()
	if err := s.Put(k, sampleArtifact()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.ID()+".artifact")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"bit flip":  append(append([]byte{}, raw[:len(raw)-1]...), raw[len(raw)-1]^1),
		"truncated": raw[:len(raw)/2],
		"bad magic": append([]byte("not-an-artifact\n"), raw...),
		"empty":     {},
	}
	for name, mutated := range cases {
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("%s: corrupt artifact reported as a hit", name)
		}
	}
	if st := s.Stats(); st.Errors != uint64(len(cases)) {
		t.Errorf("stats errors = %d, want %d (every corrupt read counted)", st.Errors, len(cases))
	}

	// A fresh Put repairs the slot.
	if err := s.Put(k, sampleArtifact()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("Get after repair Put missed")
	}
}

// TestMismatchedKeyEcho: an artifact whose embedded workload/structure
// disagree with the key it is filed under is rejected.
func TestMismatchedKeyEcho(t *testing.T) {
	s, _ := Open(t.TempDir())
	k := sampleKey()
	a := sampleArtifact()
	a.Workload = "sha" // embedded echo disagrees with k
	if err := s.Put(k, a); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("key-mismatched artifact reported as a hit")
	}
}

// TestAnalysisRehydration: the Analysis rebuilt from cached intervals
// answers Find and AVF exactly like one built from the live trace.
func TestAnalysisRehydration(t *testing.T) {
	a := sampleArtifact()
	an, ok := a.Analysis(lifetime.StructRF)
	if !ok {
		t.Fatal("artifact lost its RF trace")
	}
	if got := an.AVF(); got == 0 {
		t.Fatal("rehydrated analysis has zero AVF despite a vulnerable interval")
	}
	if _, ok := an.Find(3, 0, 15); !ok {
		t.Fatal("rehydrated analysis misses a covered flip")
	}
	if _, ok := an.Find(3, 0, 25); ok {
		t.Fatal("rehydrated analysis covers a flip outside all intervals")
	}
	if _, ok := a.Analysis(lifetime.StructSQ); ok {
		t.Fatal("artifact served an analysis for a structure it never traced")
	}
}

// TestMultiStructureRoundTrip: a batch artifact carries one trace per
// structure and serves each back bit-identically under one key.
func TestMultiStructureRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := sampleArtifact()
	a.Structures = append(a.Structures, StructureTrace{
		Structure:  lifetime.StructSQ,
		Entries:    64,
		EntryBytes: 8,
		Intervals: []lifetime.Interval{
			{Entry: 1, Mask: 0x0f, Start: 30, End: 40, EndSeq: 9, RIP: 50},
		},
	})
	k := NewKey("qsort", cpu.DefaultConfig(), 500_000_000, lifetime.StructSQ, lifetime.StructRF)
	if err := s.Put(k, a); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("multi-structure Get after Put missed")
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("multi-structure round trip not bit-identical:\n got %+v\nwant %+v", got, a)
	}
	for _, want := range []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ} {
		if _, ok := got.Trace(want); !ok {
			t.Fatalf("round-tripped artifact lost the %v trace", want)
		}
	}
	// The single-structure key must not be served the batch artifact: its
	// structure set differs.
	if _, ok := s.Get(NewKey("qsort", cpu.DefaultConfig(), 500_000_000, lifetime.StructRF)); ok {
		t.Fatal("single-structure key hit a multi-structure artifact")
	}
}

// TestOldFormatVersionIsACleanMiss: a version-1 (pre-batch) artifact file
// sitting at a current key's path reads as a miss — the format bump
// invalidates it — and a fresh Put repairs the slot.
func TestOldFormatVersionIsACleanMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	k := sampleKey()
	if err := s.Put(k, sampleArtifact()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.ID()+".artifact")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the file under the previous format's magic line, keeping the
	// (now version-skewed) payload intact.
	old := append([]byte("merlin-artifact/1\n"), raw[len(fileMagic):]...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("version-1 artifact served as a hit under the version-2 reader")
	}
	if st := s.Stats(); st.Errors == 0 {
		t.Fatal("version skew not counted as a read error")
	}
	if err := s.Put(k, sampleArtifact()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("Get after repair Put missed")
	}
}

// TestConcurrentAccess hammers one slot from many goroutines; the race
// detector plus the atomic-rename protocol guarantee readers only ever
// see complete artifacts.
func TestConcurrentAccess(t *testing.T) {
	s, _ := Open(t.TempDir())
	k := sampleKey()
	want := sampleArtifact()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Put(k, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(k); ok && !reflect.DeepEqual(got, want) {
					t.Error("reader observed a partial or mutated artifact")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// place copies testdata/from into dir as to.
func place(t *testing.T, dir, from, to string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", from))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, to), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEventsAreNotStored: an event log handed to Put is not written, and
// Get serves the trace without one.
func TestEventsAreNotStored(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := sampleKey()
	withEvents := sampleArtifact()
	withEvents.Structures[0].Events = []lifetime.Event{
		{Seq: 1, Cycle: 10, Entry: 3, Mask: 0xff, Kind: lifetime.EvWrite},
		{Seq: 2, Cycle: 20, CommitSeq: 5, Entry: 3, Mask: 0xff, RIP: 42, Kind: lifetime.EvRead, UPC: 1},
	}
	if err := s.Put(k, withEvents); err != nil {
		t.Fatal(err)
	}
	size := s.Stats().Bytes
	if err := s.Put(k, sampleArtifact()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Bytes != size {
		t.Errorf("the file with an event log is %d bytes, without one %d", size, st.Bytes)
	}
	if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, sampleArtifact()) {
		t.Fatalf("Get served ok=%v %+v, want the artifact without events", ok, got)
	}
}

// TestServesParentWrittenFiles pins both on-disk layouts: an artifact
// written at format 5 (testdata/v5.artifact, Put of sampleArtifact) and a
// campaign record written before the two codecs became one
// (testdata/c000001.campaign, Put of sampleRecord) are served by Get and
// List.
func TestServesParentWrittenFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	place(t, s.Dir(), "v5.artifact", filepath.Base(s.path(sampleKey())))
	if got, ok := s.Get(sampleKey()); !ok || !reflect.DeepEqual(got, sampleArtifact()) {
		t.Fatalf("format-5 artifact not served: ok=%v %+v", ok, got)
	}

	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	place(t, r.Dir(), "c000001.campaign", "c000001.campaign")
	recs, err := r.List()
	if err != nil || len(recs) != 1 || !reflect.DeepEqual(recs[0], sampleRecord("c000001")) {
		t.Fatalf("parent-written record not listed: %v %+v", err, recs)
	}
	if got, ok := r.Get("c000001"); !ok || !reflect.DeepEqual(got, sampleRecord("c000001")) {
		t.Fatalf("parent-written record not served: ok=%v %+v", ok, got)
	}
}

// TestOldArtifactIsCleanMiss: the all-gob format-3 artifact and the
// format-4 artifact with event logs, each of the same sampleArtifact
// (testdata/v3.artifact, testdata/v4.artifact), are one error and one miss
// — there is no reader for either — and the next Put overwrites them.
func TestOldArtifactIsCleanMiss(t *testing.T) {
	for _, file := range []string{"v3.artifact", "v4.artifact"} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		k := sampleKey()
		place(t, s.Dir(), file, filepath.Base(s.path(k)))
		if _, ok := s.Get(k); ok {
			t.Fatalf("%s served by the format-%d reader", file, formatVersion)
		}
		if st := s.Stats(); st.Errors != 1 || st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("%s: stats = %+v, want 1 error / 1 miss / 0 hits", file, st)
		}
		if err := s.Put(k, sampleArtifact()); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		if !ok || !reflect.DeepEqual(got, sampleArtifact()) {
			t.Fatalf("%s: Get after the overwriting Put: ok=%v %+v", file, ok, got)
		}
	}
}
