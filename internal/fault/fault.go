// Package fault defines the transient-fault model: a single bit flip in a
// physical storage location (register, store-queue slot, or cache line) at
// a specific execution cycle, matching the GeFIN injector the paper builds
// on.
package fault

import (
	"fmt"
	"sort"

	"merlin/internal/lifetime"
)

// Fault is one transient fault: the paper's single-bit flip.
type Fault struct {
	Structure lifetime.StructureID
	Entry     int32  // physical slot index within the structure
	Bit       int32  // flipped bit within the entry (0 .. entryBits-1)
	Cycle     uint64 // flip applied at the start of this cycle
}

// Byte returns the byte position of the flipped bit within its entry — the
// sub-grouping key of MeRLiN's second step (§3.2.2).
func (f Fault) Byte() int { return int(f.Bit) / 8 }

// String formats the fault for logs.
func (f Fault) String() string {
	return fmt.Sprintf("%s[%d] bit %d @ cycle %d", f.Structure, f.Entry, f.Bit, f.Cycle)
}

// Equal reports whether two faults denote the identical flip.
func Equal(a, b Fault) bool { return a == b }

// Less orders faults by injection cycle, breaking ties by structure, entry
// and bit so any sort over faults is fully deterministic.
func Less(a, b Fault) bool {
	switch {
	case a.Cycle != b.Cycle:
		return a.Cycle < b.Cycle
	case a.Structure != b.Structure:
		return a.Structure < b.Structure
	case a.Entry != b.Entry:
		return a.Entry < b.Entry
	default:
		return a.Bit < b.Bit
	}
}

// SortedIndices returns the indices of faults in ascending Less order,
// leaving the slice itself untouched: campaign outcomes are indexed by the
// original fault order, so schedulers that sweep in cycle order (the
// fork-on-fault scheduler) reorder indices, never the list.
func SortedIndices(faults []Fault) []int {
	order := make([]int, len(faults))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return Less(faults[order[i]], faults[order[j]])
	})
	return order
}
