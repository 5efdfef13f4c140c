package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"merlin/internal/lifetime"
)

func TestZScore(t *testing.T) {
	tests := []struct {
		conf float64
		want float64
	}{
		{0.95, 1.95996},
		{0.99, 2.57583},
		{0.998, 3.09023},
	}
	for _, tt := range tests {
		if got := zScore(tt.conf); math.Abs(got-tt.want) > 1e-3 {
			t.Errorf("zScore(%v) = %v, want %v", tt.conf, got, tt.want)
		}
	}
}

func TestPaperSampleSizes(t *testing.T) {
	// §3.1.2: a 256-entry 64-bit register file over 100M cycles needs
	// ~2,000 faults at (99%, 2.88%), ~60,000 at (99.8%, 0.63%) and
	// ~600,000 at (99.8%, 0.19%).
	pop := Population(256, 64, 100_000_000)

	n1 := Params{Confidence: 0.99, ErrorMargin: 0.0288}.SampleSize(pop)
	if n1 < 1900 || n1 > 2100 {
		t.Errorf("(99%%, 2.88%%) sample = %d, want ~2000", n1)
	}
	n2 := Baseline.SampleSize(pop)
	if n2 < 59000 || n2 > 61500 {
		t.Errorf("(99.8%%, 0.63%%) sample = %d, want ~60000", n2)
	}
	n3 := Params{Confidence: 0.998, ErrorMargin: 0.0019}.SampleSize(pop) // §4.4.2.4 scaling study
	if n3 < 590000 || n3 > 670000 {
		t.Errorf("(99.8%%, 0.19%%) sample = %d, want ~600000+", n3)
	}
	// For large populations the sample size is population-insensitive
	// (the paper's observation that margin and confidence dominate).
	n4 := Baseline.SampleSize(Population(64, 64, 1_000_000))
	if math.Abs(float64(n4-n2))/float64(n2) > 0.02 {
		t.Errorf("sample size not population-stable: %d vs %d", n4, n2)
	}
}

func TestSampleSizeSmallPopulation(t *testing.T) {
	// With a tiny population the sample approaches the population itself.
	n := Baseline.SampleSize(1000)
	if n > 1000 || n < 900 {
		t.Errorf("small-population sample = %d", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(lifetime.StructRF, 128, 64, 50_000, 1000, 42)
	b := Generate(lifetime.StructRF, 128, 64, 50_000, 1000, 42)
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs across same-seed generations", i)
		}
	}
	c := Generate(lifetime.StructRF, 128, 64, 50_000, 1000, 43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d identical faults", same)
	}
}

func TestGenerateBounds(t *testing.T) {
	f := func(seed int64) bool {
		faults := Generate(lifetime.StructSQ, 16, 64, 10_000, 200, seed)
		for _, ft := range faults {
			if ft.Entry < 0 || ft.Entry >= 16 || ft.Bit < 0 || ft.Bit >= 64 ||
				ft.Cycle < 1 || ft.Cycle > 10_000 {
				return false
			}
			if ft.Byte() != int(ft.Bit)/8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGenerateUniformish(t *testing.T) {
	faults := Generate(lifetime.StructL1D, 512, 512, 100_000, 50_000, 7)
	var entrySum, bitSum, cycleSum float64
	for _, f := range faults {
		entrySum += float64(f.Entry)
		bitSum += float64(f.Bit)
		cycleSum += float64(f.Cycle)
	}
	n := float64(len(faults))
	if m := entrySum / n; math.Abs(m-255.5) > 10 {
		t.Errorf("mean entry = %v, want ~255.5", m)
	}
	if m := bitSum / n; math.Abs(m-255.5) > 10 {
		t.Errorf("mean bit = %v, want ~255.5", m)
	}
	if m := cycleSum / n; math.Abs(m-50_000) > 2000 {
		t.Errorf("mean cycle = %v, want ~50000", m)
	}
}

// TestGenerateDegenerateGeometry: a geometry with an empty fault
// population (an instant workload, a zero-sized structure) must yield an
// empty list, not a panic inside the uniform draws.
func TestGenerateDegenerateGeometry(t *testing.T) {
	cases := []struct {
		name          string
		entries, bits int
		cycles        uint64
		n             int
	}{
		{"zero cycles", 256, 512, 0, 100},
		{"zero entries", 0, 512, 1000, 100},
		{"zero entry bits", 256, 0, 1000, 100},
		{"negative entries", -4, 512, 1000, 100},
		{"zero faults", 256, 512, 1000, 0},
		{"negative faults", 256, 512, 1000, -7},
		{"everything zero", 0, 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Generate(lifetime.StructRF, tc.entries, tc.bits, tc.cycles, tc.n, 1)
			if len(got) != 0 {
				t.Fatalf("Generate = %d faults, want 0", len(got))
			}
		})
	}
}
