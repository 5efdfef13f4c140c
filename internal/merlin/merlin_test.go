package merlin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"merlin/internal/campaign"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
)

// synthAnalysis builds intervals for a toy structure of 4 entries x 8
// bytes: entry e has intervals (10,20] read by rip 1 upc 0, (20,30] read by
// rip 2 upc 1, for all bytes; plus entry 3 has a WB interval.
func synthAnalysis(t *testing.T) *lifetime.Analysis {
	t.Helper()
	log := &lifetime.Log{}
	seq := uint64(0)
	add := func(ev lifetime.Event) {
		seq++
		ev.Seq = seq
		log.Append(ev)
	}
	for e := int32(0); e < 3; e++ {
		add(lifetime.Event{Kind: lifetime.EvWrite, Entry: e, Mask: 0xff, Cycle: 10})
		add(lifetime.Event{Kind: lifetime.EvRead, Entry: e, Mask: 0xff, Cycle: 20, RIP: 1, UPC: 0, CommitSeq: uint64(100 + e)})
		add(lifetime.Event{Kind: lifetime.EvRead, Entry: e, Mask: 0xff, Cycle: 30, RIP: 2, UPC: 1, CommitSeq: uint64(200 + e)})
	}
	add(lifetime.Event{Kind: lifetime.EvWrite, Entry: 3, Mask: 0xff, Cycle: 40})
	add(lifetime.Event{Kind: lifetime.EvWBRead, Entry: 3, Mask: 0xff, Cycle: 50, RIP: lifetime.WBRip, CommitSeq: 300})
	return lifetime.Build(log, lifetime.StructRF, 4, 8, 100)
}

func mkFault(entry, bit int32, cycle uint64) fault.Fault {
	return fault.Fault{Structure: lifetime.StructRF, Entry: entry, Bit: bit, Cycle: cycle}
}

func TestPrune(t *testing.T) {
	a := synthAnalysis(t)
	faults := []fault.Fault{
		mkFault(0, 0, 15),  // in (10,20]
		mkFault(0, 0, 5),   // before any write: masked
		mkFault(0, 0, 35),  // after last read: masked
		mkFault(1, 63, 25), // in (20,30]
		mkFault(3, 8, 45),  // in the WB interval
	}
	r := Prune(a, faults)
	if r.ACEMasked != 2 {
		t.Errorf("ACE-masked = %d, want 2", r.ACEMasked)
	}
	if len(r.HitFaults) != 3 {
		t.Errorf("hits = %d, want 3", len(r.HitFaults))
	}
	if got := r.ACESpeedup(); math.Abs(got-5.0/3) > 1e-9 {
		t.Errorf("ACE speedup = %v, want 5/3", got)
	}
}

func TestReduceGrouping(t *testing.T) {
	a := synthAnalysis(t)
	// Four faults in the same (rip 1, upc 0) interval class, two in byte 0
	// and two in byte 7, across entries 0 and 1 (different dynamic
	// instances); plus one fault read by rip 2.
	faults := []fault.Fault{
		mkFault(0, 0, 12),
		mkFault(1, 1, 15),
		mkFault(0, 56, 13),
		mkFault(1, 57, 16),
		mkFault(2, 0, 25),
	}
	r := Reduce(a, faults, DefaultOptions())
	if r.StepOneGroups != 2 {
		t.Fatalf("step-1 groups = %d, want 2", r.StepOneGroups)
	}
	// Step 2 splits (rip1, upc0) into byte 0 and byte 7 groups.
	if len(r.Groups) != 3 {
		t.Fatalf("final groups = %d, want 3", len(r.Groups))
	}
	if got := r.ReducedCount(); got != 3 {
		t.Fatalf("reduced = %d, want 3", got)
	}
	if got := r.FinalSpeedup(); math.Abs(got-5.0/3) > 1e-9 {
		t.Errorf("final speedup = %v", got)
	}
	// Time diversity: the byte-0 and byte-7 representatives of the rip-1
	// group must come from different dynamic instances (entries here).
	var reps []fault.Fault
	for _, g := range r.Groups {
		if g.Key.RIP == 1 {
			reps = append(reps, r.Faults[g.Reps[0]])
		}
	}
	if len(reps) != 2 {
		t.Fatalf("rip-1 groups = %d, want 2", len(reps))
	}
	if reps[0].Entry == reps[1].Entry {
		t.Errorf("representatives lack instance diversity: both from entry %d", reps[0].Entry)
	}
}

func TestReduceMembersPartitionHits(t *testing.T) {
	a := synthAnalysis(t)
	var faults []fault.Fault
	for e := int32(0); e < 3; e++ {
		for b := int32(0); b < 64; b += 9 {
			faults = append(faults, mkFault(e, b, 11+uint64(e)), mkFault(e, b, 22))
		}
	}
	r := Reduce(a, faults, DefaultOptions())
	members := 0
	for _, g := range r.Groups {
		members += len(g.Members)
	}
	if members != len(r.HitFaults) {
		t.Errorf("group members = %d, hits = %d; groups must partition the post-ACE list", members, len(r.HitFaults))
	}
	if r.ReducedCount() >= len(r.HitFaults) {
		t.Errorf("no reduction achieved: %d reps for %d hits", r.ReducedCount(), len(r.HitFaults))
	}
}

func TestExtrapolate(t *testing.T) {
	a := synthAnalysis(t)
	faults := []fault.Fault{
		mkFault(0, 0, 12),  // group A (rip1, byte0) - 2 members
		mkFault(1, 2, 15),  // group A
		mkFault(0, 56, 13), // group B (rip1, byte7)
		mkFault(2, 0, 25),  // group C (rip2, byte0)
		mkFault(0, 0, 99),  // ACE-masked
	}
	r := Reduce(a, faults, DefaultOptions())
	if len(r.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(r.Groups))
	}
	reps := r.Reduced()
	if len(reps) != 3 {
		t.Fatalf("reduced = %d", len(reps))
	}
	// Outcomes in deterministic group order: A=SDC, B=Masked, C=Crash.
	d := r.Extrapolate([]campaign.Outcome{campaign.SDC, campaign.Masked, campaign.Crash})
	if d[campaign.SDC] != 2 || d[campaign.Crash] != 1 || d[campaign.Masked] != 2 {
		t.Errorf("extrapolated dist = %v", d)
	}
	if d.Total() != len(faults) {
		t.Errorf("total = %d, want %d", d.Total(), len(faults))
	}
	pa := r.PostACEExtrapolate([]campaign.Outcome{campaign.SDC, campaign.Masked, campaign.Crash})
	if pa.Total() != 4 || pa[campaign.Masked] != 1 {
		t.Errorf("post-ACE dist = %v", pa)
	}
}

func TestRepsPerGroupAblation(t *testing.T) {
	a := synthAnalysis(t)
	var faults []fault.Fault
	for i := 0; i < 20; i++ {
		faults = append(faults, mkFault(int32(i%3), int32(i%8), 12+uint64(i%8)))
	}
	r1 := Reduce(a, faults, Options{RepsPerGroup: 1, ByteGrouping: true})
	r3 := Reduce(a, faults, Options{RepsPerGroup: 3, ByteGrouping: true})
	if r3.ReducedCount() <= r1.ReducedCount() {
		t.Errorf("3 reps (%d) should inject more than 1 rep (%d)", r3.ReducedCount(), r1.ReducedCount())
	}
	for _, g := range r3.Groups {
		if len(g.Reps) > len(g.Members) {
			t.Errorf("group has %d reps for %d members", len(g.Reps), len(g.Members))
		}
		seen := map[int32]bool{}
		for _, rep := range g.Reps {
			if seen[rep] {
				t.Error("duplicate representative in group")
			}
			seen[rep] = true
		}
	}
}

func TestNoByteGroupingAblation(t *testing.T) {
	a := synthAnalysis(t)
	var faults []fault.Fault
	for b := int32(0); b < 64; b += 8 {
		faults = append(faults, mkFault(0, b, 12))
	}
	rOn := Reduce(a, faults, Options{RepsPerGroup: 1, ByteGrouping: true})
	rOff := Reduce(a, faults, Options{RepsPerGroup: 1, ByteGrouping: false})
	if rOn.ReducedCount() != 8 {
		t.Errorf("byte grouping: %d reps, want 8 (one per byte)", rOn.ReducedCount())
	}
	if rOff.ReducedCount() != 1 {
		t.Errorf("no byte grouping: %d reps, want 1", rOff.ReducedCount())
	}
}

func TestHomogeneity(t *testing.T) {
	a := synthAnalysis(t)
	faults := []fault.Fault{
		mkFault(0, 0, 12), mkFault(1, 1, 15), // group A: 2 members
		mkFault(0, 56, 13), mkFault(1, 57, 14), // group B: 2 members
	}
	r := Reduce(a, faults, DefaultOptions())
	outcomes := make([]campaign.Outcome, len(faults))
	// Group A homogeneous SDC; group B split Masked/Crash.
	outcomes[0], outcomes[1] = campaign.SDC, campaign.SDC
	outcomes[2], outcomes[3] = campaign.Masked, campaign.Crash
	h := r.Homogeneity(outcomes)
	if math.Abs(h.Fine-0.75) > 1e-9 { // (2 + 1)/4
		t.Errorf("fine homogeneity = %v, want 0.75", h.Fine)
	}
	if math.Abs(h.Coarse-0.75) > 1e-9 {
		t.Errorf("coarse homogeneity = %v, want 0.75", h.Coarse)
	}
	if math.Abs(h.PerfectShare-0.5) > 1e-9 {
		t.Errorf("perfect share = %v, want 0.5", h.PerfectShare)
	}
}

func TestInaccuracy(t *testing.T) {
	var a, b campaign.Dist
	a.AddN(campaign.Masked, 90)
	a.AddN(campaign.SDC, 10)
	b.AddN(campaign.Masked, 85)
	b.AddN(campaign.SDC, 15)
	in := Inaccuracy(a, b)
	if math.Abs(in[campaign.Masked]-5) > 1e-9 || math.Abs(in[campaign.SDC]-5) > 1e-9 {
		t.Errorf("inaccuracy = %v", in)
	}
}

// TestReduceInvariantsProperty checks the structural invariants of the
// reduction over randomized fault lists: pruning + groups partition the
// initial list, representatives are members of their groups, and
// extrapolation always covers exactly the initial list.
func TestReduceInvariantsProperty(t *testing.T) {
	a := synthAnalysis(t)
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%120
		faults := make([]fault.Fault, n)
		for i := range faults {
			faults[i] = mkFault(int32(rng.Intn(4)), int32(rng.Intn(64)), uint64(rng.Intn(110))+1)
		}
		r := Reduce(a, faults, Options{RepsPerGroup: 1 + rng.Intn(3), ByteGrouping: rng.Intn(2) == 0})

		seen := map[int32]bool{}
		members := 0
		for _, g := range r.Groups {
			for _, m := range g.Members {
				if seen[m] {
					return false // fault in two groups
				}
				seen[m] = true
				members++
			}
			inGroup := map[int32]bool{}
			for _, m := range g.Members {
				inGroup[m] = true
			}
			for _, rep := range g.Reps {
				if !inGroup[rep] {
					return false // representative outside its group
				}
			}
			if len(g.Reps) < 1 || len(g.Reps) > len(g.Members) {
				return false
			}
		}
		if members+r.ACEMasked != n || members != len(r.HitFaults) {
			return false
		}
		outcomes := make([]campaign.Outcome, r.ReducedCount())
		for i := range outcomes {
			outcomes[i] = campaign.Outcome(rng.Intn(int(campaign.Assert)))
		}
		d := r.Extrapolate(outcomes)
		return d.Total() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
