// Package merlin implements the paper's contribution: the fault-list
// reduction methodology (§3). Phase 1 prunes faults that land outside
// ACE-like vulnerable intervals (provably masked). Phase 2 groups the
// survivors by the static instruction and micro-op that reads the faulty
// entry at the end of its interval (step 1), sub-groups by the byte
// position of the flipped bit (step 2), and selects one representative per
// final group from diverse dynamic instances. Only representatives are
// injected; their outcomes extrapolate to the whole group.
package merlin

import (
	"sort"

	"merlin/internal/campaign"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
)

// GroupKey identifies a step-1 group: the (RIP, uPC) of the committed read
// ending the vulnerable interval. Path differentiates Relyzer-style
// control-equivalence groups (always 0 for MeRLiN's own grouping).
type GroupKey struct {
	RIP  int32
	UPC  uint8
	Path uint64
}

// Group is one final group after both steps: the faults in Members are
// expected to have the same effect, and only the representatives in Reps
// are injected. Byte is the step-2 sub-key (0xFF when byte sub-grouping is
// disabled, e.g. for the Relyzer comparison).
type Group struct {
	Key     GroupKey
	Byte    uint8
	Members []int32 // indexes into the initial fault list
	Reps    []int32 // indexes into the initial fault list; len >= 1
}

// Reduction is the outcome of MeRLiN's fault-list reduction for one
// structure/run: the bookkeeping needed for injection, extrapolation,
// homogeneity measurement and speedup accounting.
type Reduction struct {
	Structure     lifetime.StructureID
	Faults        []fault.Fault // the initial statistical fault list
	ACEMasked     int           // pruned by phase 1 (provably masked)
	HitFaults     []int32       // indexes of faults inside vulnerable intervals
	IntervalOf    []int32       // per initial fault: interval id, -1 if masked
	StepOneGroups int
	Groups        []Group
}

// Reduced returns the faults to actually inject (all representatives, in
// deterministic group order).
func (r *Reduction) Reduced() []fault.Fault {
	out := make([]fault.Fault, 0, len(r.Groups))
	for _, g := range r.Groups {
		for _, rep := range g.Reps {
			out = append(out, r.Faults[rep])
		}
	}
	return out
}

// ReducedCount returns the number of injection runs MeRLiN needs.
func (r *Reduction) ReducedCount() int {
	n := 0
	for _, g := range r.Groups {
		n += len(g.Reps)
	}
	return n
}

// ACESpeedup is the fault-list reduction achieved by phase 1 alone
// (the lower segment of the paper's Figs 8-10 bars).
func (r *Reduction) ACESpeedup() float64 {
	if len(r.HitFaults) == 0 {
		return float64(len(r.Faults))
	}
	return float64(len(r.Faults)) / float64(len(r.HitFaults))
}

// FinalSpeedup is the total fault-list reduction of both phases
// (the top-of-bar values of Figs 8-10).
func (r *Reduction) FinalSpeedup() float64 {
	n := r.ReducedCount()
	if n == 0 {
		return float64(len(r.Faults))
	}
	return float64(len(r.Faults)) / float64(n)
}

// Options tunes the reduction.
type Options struct {
	// RepsPerGroup selects how many representatives to inject per final
	// group (1 reproduces the paper; >1 is the accuracy/cost ablation).
	RepsPerGroup int
	// ByteGrouping enables step 2 (on for MeRLiN; off reproduces a pure
	// step-1 grouping for ablations).
	ByteGrouping bool
	// Premasked, when non-nil, marks faults the static pre-pruner
	// (internal/guestflow) already proved masked: phase 1 skips the
	// interval lookup for them and classifies them ACE-masked directly.
	// The caller must guarantee every premasked fault is also dynamically
	// masked (the session pipeline cross-verifies before reducing) — under
	// that invariant the reduction is bit-identical to an unpruned run,
	// just cheaper. Length must match the fault list when non-nil.
	Premasked []bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options { return Options{RepsPerGroup: 1, ByteGrouping: true} }

// Prune runs phase 1 only: the ACE-like pruning that classifies faults
// outside vulnerable intervals as Masked without injection. Both MeRLiN's
// grouping and the Relyzer-heuristic comparison start from its output.
func Prune(a *lifetime.Analysis, faults []fault.Fault) *Reduction {
	return prune(a, faults, nil)
}

// prune is Prune with the static pre-pruner's verdicts: premasked faults
// skip the interval lookup and classify masked directly, which is
// bit-identical to the lookup path as long as every premasked fault is
// dynamically masked too (the session pipeline verifies that invariant
// before calling down here).
func prune(a *lifetime.Analysis, faults []fault.Fault, premasked []bool) *Reduction {
	r := &Reduction{
		Structure:  a.Structure,
		Faults:     faults,
		IntervalOf: make([]int32, len(faults)),
	}
	for i, f := range faults {
		if premasked != nil && premasked[i] {
			r.IntervalOf[i] = -1
			r.ACEMasked++
			continue
		}
		if id, ok := a.Find(f.Entry, f.Byte(), f.Cycle); ok {
			r.IntervalOf[i] = id
			r.HitFaults = append(r.HitFaults, int32(i))
		} else {
			r.IntervalOf[i] = -1
			r.ACEMasked++
		}
	}
	return r
}

// Reduce runs both phases of MeRLiN's fault-list reduction over the initial
// fault list, using the vulnerable intervals of the ACE-like analysis.
func Reduce(a *lifetime.Analysis, faults []fault.Fault, opts Options) *Reduction {
	if opts.RepsPerGroup < 1 {
		opts.RepsPerGroup = 1
	}
	r := prune(a, faults, opts.Premasked)

	// Phase 2, step 1: group by the (RIP, uPC) of the interval's reader.
	step1 := make(map[GroupKey][]int32)
	for _, fi := range r.HitFaults {
		iv := &a.Intervals[r.IntervalOf[fi]]
		key := GroupKey{RIP: iv.RIP, UPC: iv.UPC}
		step1[key] = append(step1[key], fi)
	}
	r.StepOneGroups = len(step1)
	keys := make([]GroupKey, 0, len(step1))
	for k := range step1 {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].RIP != keys[j].RIP {
			return keys[i].RIP < keys[j].RIP
		}
		return keys[i].UPC < keys[j].UPC
	})

	// Phase 2, step 2: sub-group by byte position; pick representatives
	// from different dynamic instances across the byte sub-groups.
	for _, key := range keys {
		members := step1[key]
		if !opts.ByteGrouping {
			g := Group{Key: key, Byte: 0xFF, Members: members}
			g.Reps = pickDiverse(a, r, members, 0, opts.RepsPerGroup)
			r.Groups = append(r.Groups, g)
			continue
		}
		byByte := make(map[uint8][]int32)
		for _, fi := range members {
			b := uint8(r.Faults[fi].Byte())
			byByte[b] = append(byByte[b], fi)
		}
		bytesSorted := make([]int, 0, len(byByte))
		for b := range byByte {
			bytesSorted = append(bytesSorted, int(b))
		}
		sort.Ints(bytesSorted)
		for ord, b := range bytesSorted {
			sub := byByte[uint8(b)]
			g := Group{Key: key, Byte: uint8(b), Members: sub}
			g.Reps = pickDiverse(a, r, sub, ord, opts.RepsPerGroup)
			r.Groups = append(r.Groups, g)
		}
	}
	return r
}

// pickDiverse selects k representatives from members, rotating across the
// distinct dynamic instances (interval end sequence numbers) so that
// different byte sub-groups of the same static instruction sample
// different dynamic executions (§3.2.2's time diversity).
func pickDiverse(a *lifetime.Analysis, r *Reduction, members []int32, rotation, k int) []int32 {
	// Sort members by (instance, entry, bit) for determinism.
	sorted := make([]int32, len(members))
	copy(sorted, members)
	sort.Slice(sorted, func(i, j int) bool {
		a1 := a.Intervals[r.IntervalOf[sorted[i]]].EndSeq
		a2 := a.Intervals[r.IntervalOf[sorted[j]]].EndSeq
		if a1 != a2 {
			return a1 < a2
		}
		f1, f2 := r.Faults[sorted[i]], r.Faults[sorted[j]]
		if f1.Entry != f2.Entry {
			return f1.Entry < f2.Entry
		}
		return f1.Bit < f2.Bit
	})
	// Distinct instances in order.
	var instances []uint64
	instanceStart := map[uint64]int{}
	for i, fi := range sorted {
		seq := a.Intervals[r.IntervalOf[fi]].EndSeq
		if _, seen := instanceStart[seq]; !seen {
			instanceStart[seq] = i
			instances = append(instances, seq)
		}
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	reps := make([]int32, 0, k)
	used := make(map[int32]bool, k)
	for j := 0; j < k; j++ {
		inst := instances[(rotation+j)%len(instances)]
		idx := instanceStart[inst]
		// Take the first unused member of that instance, falling back to
		// a global scan if the instance is exhausted.
		rep := int32(-1)
		for i := idx; i < len(sorted); i++ {
			if !used[sorted[i]] {
				rep = sorted[i]
				break
			}
		}
		if rep < 0 {
			for i := 0; i < len(sorted); i++ {
				if !used[sorted[i]] {
					rep = sorted[i]
					break
				}
			}
		}
		reps = append(reps, rep)
		used[rep] = true
	}
	return reps
}

// ExtrapolateGroups walks the groups together with each group's
// extrapolated member distribution: repOutcomes is the concatenation of
// every group's representative outcomes in Groups order (i.e. aligned
// with Reduced()), and each member inherits its representative's outcome,
// cycling through the group's representatives when RepsPerGroup > 1. It
// is the single place that alignment and inheritance rule live;
// Extrapolate and the batch report's per-group variance model both build
// on it.
func (r *Reduction) ExtrapolateGroups(repOutcomes []campaign.Outcome, fn func(g *Group, d campaign.Dist)) {
	pos := 0
	for i := range r.Groups {
		g := &r.Groups[i]
		reps := repOutcomes[pos : pos+len(g.Reps)]
		pos += len(g.Reps)
		var d campaign.Dist
		for j := range g.Members {
			d.Add(reps[j%len(reps)])
		}
		fn(g, d)
	}
}

// Extrapolate builds the fault-effect distribution of the entire initial
// fault list from the outcomes of the injected representatives (aligned
// with Reduced()). Phase-1-pruned faults count as Masked; every group
// member inherits its representative's outcome.
func (r *Reduction) Extrapolate(repOutcomes []campaign.Outcome) campaign.Dist {
	var d campaign.Dist
	d.AddN(campaign.Masked, r.ACEMasked)
	r.ExtrapolateGroups(repOutcomes, func(_ *Group, gd campaign.Dist) {
		for o, n := range gd {
			d.AddN(campaign.Outcome(o), n)
		}
	})
	return d
}

// PostACEExtrapolate is Extrapolate restricted to the post-ACE fault list
// (for the Fig 14 comparison against injecting that whole list).
func (r *Reduction) PostACEExtrapolate(repOutcomes []campaign.Outcome) campaign.Dist {
	d := r.Extrapolate(repOutcomes)
	d.AddN(campaign.Masked, -r.ACEMasked)
	return d
}
