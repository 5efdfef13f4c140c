package relyzer

import (
	"testing"

	"merlin/internal/fault"
	"merlin/internal/lifetime"
	merlingroup "merlin/internal/merlin"
)

// analysis with two entries read by the same (rip, upc) at two different
// dynamic instances (commit seqs 100 and 200).
func testAnalysis() *lifetime.Analysis {
	log := &lifetime.Log{}
	seq := uint64(0)
	add := func(ev lifetime.Event) {
		seq++
		ev.Seq = seq
		log.Append(ev)
	}
	add(lifetime.Event{Kind: lifetime.EvWrite, Entry: 0, Mask: 0xff, Cycle: 10})
	add(lifetime.Event{Kind: lifetime.EvRead, Entry: 0, Mask: 0xff, Cycle: 20, RIP: 5, UPC: 0, CommitSeq: 100})
	add(lifetime.Event{Kind: lifetime.EvWrite, Entry: 1, Mask: 0xff, Cycle: 30})
	add(lifetime.Event{Kind: lifetime.EvRead, Entry: 1, Mask: 0xff, Cycle: 40, RIP: 5, UPC: 0, CommitSeq: 200})
	return lifetime.Build(log, lifetime.StructRF, 2, 8, 100)
}

// branch trace: instance 100 is followed by taken/taken, instance 200 by
// not-taken/taken — different depth-2 control paths.
func testBranches() []lifetime.BranchRec {
	return []lifetime.BranchRec{
		{CommitSeq: 110, RIP: 6, Taken: true},
		{CommitSeq: 120, RIP: 7, Taken: true},
		{CommitSeq: 210, RIP: 6, Taken: false},
		{CommitSeq: 220, RIP: 7, Taken: true},
	}
}

func faultsAt(cycles ...uint64) []fault.Fault {
	var out []fault.Fault
	for i, c := range cycles {
		entry := int32(0)
		if c > 25 {
			entry = 1
		}
		out = append(out, fault.Fault{Structure: lifetime.StructRF, Entry: entry, Bit: int32(i % 64), Cycle: c})
	}
	return out
}

func TestControlPathsSeparateGroups(t *testing.T) {
	a := testAnalysis()
	faults := faultsAt(15, 18, 35, 38)
	r := Reduce(a, faults, testBranches(), 2, 1)
	// Same (rip, upc) but different forward control paths: two groups.
	if len(r.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (distinct control paths)", len(r.Groups))
	}
	if r.Groups[0].Key.Path == r.Groups[1].Key.Path {
		t.Error("path signatures must differ")
	}
	for _, g := range r.Groups {
		if len(g.Reps) != 1 {
			t.Errorf("relyzer picks one pilot per group, got %d", len(g.Reps))
		}
		if len(g.Members) != 2 {
			t.Errorf("group members = %d, want 2", len(g.Members))
		}
	}
}

func TestSamePathsMergeAcrossInstances(t *testing.T) {
	a := testAnalysis()
	// Make both instances share the same forward path.
	branches := []lifetime.BranchRec{
		{CommitSeq: 110, RIP: 6, Taken: true},
		{CommitSeq: 210, RIP: 6, Taken: true},
	}
	faults := faultsAt(15, 35)
	r := Reduce(a, faults, branches, 1, 1)
	if len(r.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (identical paths merge)", len(r.Groups))
	}
	// One pilot represents both dynamic instances: the paper's criticism.
	if got := r.ReducedCount(); got != 1 {
		t.Errorf("reduced = %d", got)
	}
}

func TestPilotDeterministicBySeed(t *testing.T) {
	a := testAnalysis()
	faults := faultsAt(12, 14, 16, 18)
	r1 := Reduce(a, faults, testBranches(), 5, 7)
	r2 := Reduce(a, faults, testBranches(), 5, 7)
	if r1.Groups[0].Reps[0] != r2.Groups[0].Reps[0] {
		t.Error("same seed must pick the same pilot")
	}
}

func TestSinglePilotLargeGroups(t *testing.T) {
	// Groups aggregate per static instruction (RIP, uPC): instruction 1
	// is large with a single pilot, instruction 2 is large but split into
	// two byte groups (two reps total), instruction 3 is small.
	r := &merlingroup.Reduction{
		Groups: []merlingroup.Group{
			{Key: merlingroup.GroupKey{RIP: 1}, Members: make([]int32, 30), Reps: []int32{0}},
			{Key: merlingroup.GroupKey{RIP: 2}, Byte: 0, Members: make([]int32, 15), Reps: []int32{0}},
			{Key: merlingroup.GroupKey{RIP: 2}, Byte: 1, Members: make([]int32, 15), Reps: []int32{1}},
			{Key: merlingroup.GroupKey{RIP: 3}, Members: make([]int32, 5), Reps: []int32{0}},
		},
	}
	large, single := SinglePilotLargeGroups(r, 20)
	if large != 2 || single != 1 {
		t.Errorf("large=%d single=%d, want 2/1", large, single)
	}
}

func TestReduceUsesSharedPruning(t *testing.T) {
	a := testAnalysis()
	faults := append(faultsAt(15), fault.Fault{Structure: lifetime.StructRF, Entry: 0, Bit: 0, Cycle: 90})
	r := Reduce(a, faults, testBranches(), 5, 1)
	if r.ACEMasked != 1 {
		t.Errorf("ACE-masked = %d, want 1", r.ACEMasked)
	}
}

func TestReduce(t *testing.T) {
	a := testAnalysis()
	faults := faultsAt(15, 35)
	r := Reduce(a, faults, testBranches(), 5, 1)
	if got := Reduce(a, faults, testBranches(), 0, 1); got.StepOneGroups != r.StepOneGroups {
		t.Error("depth 0 must default to DefaultDepth")
	}
}
