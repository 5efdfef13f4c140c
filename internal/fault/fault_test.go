package fault

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"merlin/internal/lifetime"
)

func TestByte(t *testing.T) {
	for _, tt := range []struct {
		bit  int32
		want int
	}{{0, 0}, {7, 0}, {8, 1}, {63, 7}, {511, 63}} {
		if got := (Fault{Bit: tt.bit}).Byte(); got != tt.want {
			t.Errorf("Bit %d: Byte() = %d, want %d", tt.bit, got, tt.want)
		}
	}
}

func TestString(t *testing.T) {
	single := Fault{Structure: lifetime.StructRF, Entry: 3, Bit: 5, Cycle: 77}
	if got, want := single.String(), "RF[3] bit 5 @ cycle 77"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestEqual(t *testing.T) {
	base := Fault{Structure: lifetime.StructRF, Entry: 2, Bit: 4, Cycle: 10}
	if !Equal(base, base) {
		t.Error("a fault must equal itself")
	}
	for _, other := range []Fault{
		{Structure: lifetime.StructSQ, Entry: 2, Bit: 4, Cycle: 10},
		{Structure: lifetime.StructRF, Entry: 3, Bit: 4, Cycle: 10},
		{Structure: lifetime.StructRF, Entry: 2, Bit: 5, Cycle: 10},
		{Structure: lifetime.StructRF, Entry: 2, Bit: 4, Cycle: 11},
	} {
		if Equal(base, other) {
			t.Errorf("Equal(%v, %v) = true", base, other)
		}
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	faults := []Fault{
		{Structure: lifetime.StructRF, Entry: 0, Bit: 0, Cycle: 5},
		{Structure: lifetime.StructRF, Entry: 0, Bit: 0, Cycle: 2},
		{Structure: lifetime.StructSQ, Entry: 0, Bit: 0, Cycle: 2},
		{Structure: lifetime.StructRF, Entry: 1, Bit: 0, Cycle: 2},
		{Structure: lifetime.StructRF, Entry: 0, Bit: 3, Cycle: 2},
	}
	for _, a := range faults {
		if Less(a, a) {
			t.Errorf("Less(%v, %v) must be false", a, a)
		}
		for _, b := range faults {
			if Less(a, b) && Less(b, a) {
				t.Errorf("Less is not antisymmetric for %v, %v", a, b)
			}
			if !Equal(a, b) && !Less(a, b) && !Less(b, a) {
				t.Errorf("distinct faults %v, %v are unordered", a, b)
			}
		}
	}
}

func TestSortedIndices(t *testing.T) {
	faults := []Fault{
		{Structure: lifetime.StructRF, Entry: 9, Bit: 1, Cycle: 40},
		{Structure: lifetime.StructRF, Entry: 2, Bit: 3, Cycle: 7},
		{Structure: lifetime.StructRF, Entry: 5, Bit: 2, Cycle: 40},
		{Structure: lifetime.StructRF, Entry: 2, Bit: 3, Cycle: 0},
		{Structure: lifetime.StructRF, Entry: 2, Bit: 3, Cycle: 7},
	}
	orig := append([]Fault(nil), faults...)
	order := SortedIndices(faults)
	if len(order) != len(faults) {
		t.Fatalf("got %d indices for %d faults", len(order), len(faults))
	}
	for i := range faults {
		if faults[i] != orig[i] {
			t.Fatal("SortedIndices mutated the fault list")
		}
	}
	for i := 1; i < len(order); i++ {
		if Less(faults[order[i]], faults[order[i-1]]) {
			t.Errorf("order[%d]=%v precedes order[%d]=%v", i-1, faults[order[i-1]], i, faults[order[i]])
		}
	}
	// Faults 1 and 4 are identical; the stable sort must keep their
	// original relative order so campaigns stay deterministic.
	var identical []int
	for pos, idx := range order {
		if idx == 1 || idx == 4 {
			identical = append(identical, pos)
		}
	}
	if order[identical[0]] != 1 || order[identical[1]] != 4 {
		t.Error("identical faults must keep their original relative order")
	}
}

// TestSortedIndicesMatchesSliceStable: on random lists dense in cycle
// ties (and in whole duplicates), SortedIndices returns exactly the order
// a reflective sort.SliceStable by Less gives.
func TestSortedIndicesMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		faults := make([]Fault, rng.Intn(300))
		for i := range faults {
			faults[i] = Fault{
				Structure: lifetime.StructureID(rng.Intn(3)),
				Entry:     int32(rng.Intn(4)),
				Bit:       int32(rng.Intn(4)),
				Cycle:     uint64(rng.Intn(20)),
			}
		}
		want := make([]int, len(faults))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return Less(faults[want[i]], faults[want[j]]) })
		if got := SortedIndices(faults); !slices.Equal(got, want) {
			t.Fatalf("trial %d: SortedIndices %v, sort.SliceStable %v", trial, got, want)
		}
	}
}
