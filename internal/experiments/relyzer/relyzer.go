// Package relyzer implements Relyzer's control-equivalence heuristic (Hari
// et al., ASPLOS 2012) transplanted to microarchitecture-level injection,
// reproducing the comparison of paper §4.4.4: post-ACE faults are grouped
// by the reading static instruction plus the depth-5 forward control-flow
// path of the dynamic instance, and one randomly chosen pilot per group is
// injected.
package relyzer

import (
	"math/rand"
	"sort"

	"merlin/internal/fault"
	"merlin/internal/lifetime"
	merlingroup "merlin/internal/merlin"
)

// DefaultDepth is the control-flow path depth Relyzer uses [45].
const DefaultDepth = 5

// pathSig hashes the outcomes of the next depth committed conditional
// branches after program-order position seq.
func pathSig(branches []lifetime.BranchRec, seq uint64, depth int) uint64 {
	i := sort.Search(len(branches), func(k int) bool { return branches[k].CommitSeq > seq })
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for j := 0; j < depth && i+j < len(branches); j++ {
		b := branches[i+j]
		h = (h ^ uint64(uint32(b.RIP))) * prime
		if b.Taken {
			h = (h ^ 1) * prime
		} else {
			h = (h ^ 2) * prime
		}
	}
	return h
}

// Reduce groups the post-ACE fault list by (RIP, uPC, path signature) and
// selects one pilot per group uniformly at random (deterministic from
// seed). The result reuses the merlin.Reduction machinery so speedup,
// extrapolation and homogeneity are computed identically for both methods.
func Reduce(a *lifetime.Analysis, faults []fault.Fault, branches []lifetime.BranchRec, depth int, seed int64) *merlingroup.Reduction {
	if depth <= 0 {
		depth = DefaultDepth
	}
	r := merlingroup.Prune(a, faults)

	groups := make(map[merlingroup.GroupKey][]int32)
	for _, fi := range r.HitFaults {
		iv := &a.Intervals[r.IntervalOf[fi]]
		key := merlingroup.GroupKey{
			RIP:  iv.RIP,
			UPC:  iv.UPC,
			Path: pathSig(branches, iv.EndSeq, depth),
		}
		groups[key] = append(groups[key], fi)
	}
	r.StepOneGroups = len(groups)

	keys := make([]merlingroup.GroupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.RIP != b.RIP {
			return a.RIP < b.RIP
		}
		if a.UPC != b.UPC {
			return a.UPC < b.UPC
		}
		return a.Path < b.Path
	})

	rng := rand.New(rand.NewSource(seed))
	for _, key := range keys {
		members := groups[key]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		pilot := members[rng.Intn(len(members))]
		r.Groups = append(r.Groups, merlingroup.Group{
			Key:     key,
			Byte:    0xFF, // Relyzer has no byte-position sub-grouping
			Members: members,
			Reps:    []int32{pilot},
		})
	}
	return r
}

// SinglePilotLargeGroups counts, per static instruction (RIP, uPC), how
// many with more than threshold correlated faults end up represented by a
// single injected pilot — the inaccuracy source §4.4.4 quantifies
// (Relyzer leaves ~9% of large-population static instructions with only
// one pilot; MeRLiN's byte sub-grouping leaves <2%).
func SinglePilotLargeGroups(r *merlingroup.Reduction, threshold int) (large, singlePilot int) {
	type key struct {
		rip int32
		upc uint8
	}
	members := map[key]int{}
	reps := map[key]int{}
	for _, g := range r.Groups {
		k := key{g.Key.RIP, g.Key.UPC}
		members[k] += len(g.Members)
		reps[k] += len(g.Reps)
	}
	for k, m := range members {
		if m > threshold {
			large++
			if reps[k] == 1 {
				singlePilot++
			}
		}
	}
	return large, singlePilot
}
