// Package sampling implements the statistical fault sampling of Leveugle et
// al. (DATE 2009, the paper's reference [26]): the initial fault-list size
// for a target confidence level and error margin over the exhaustive
// population of (bit, cycle) flips, and the uniform random generation of
// that list.
package sampling

import (
	"math"
	"math/rand"

	"merlin/internal/fault"
	"merlin/internal/lifetime"
)

// Params describes one statistical sampling configuration.
type Params struct {
	Confidence  float64 // e.g. 0.998
	ErrorMargin float64 // e.g. 0.0063
}

// Baseline is the configuration of the paper's comprehensive campaigns:
// 60,000 faults (99.8% / 0.63%).
var Baseline = Params{Confidence: 0.998, ErrorMargin: 0.0063}

// zScore returns the two-sided normal quantile for confidence c, via the
// Acklam rational approximation of the inverse normal CDF (|rel err| < 1e-9
// over the relevant range).
func zScore(c float64) float64 {
	p := 1 - (1-c)/2
	return normInv(p)
}

// normInv computes the standard normal quantile function.
func normInv(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	cc := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// SampleSize returns the number of faults required for the given population
// (total bits x total cycles) at the parameters' confidence and margin:
//
//	n = N / (1 + e^2 (N-1) / (t^2 p(1-p))),  p = 0.5
//
// For the paper's populations this yields ~60,000 at (99.8%, 0.63%) and
// ~600,000 at (99.8%, 0.19%).
func (p Params) SampleSize(population float64) int {
	t := zScore(p.Confidence)
	e := p.ErrorMargin
	num := population
	den := 1 + e*e*(population-1)/(t*t*0.25)
	return int(math.Ceil(num / den))
}

// Population returns the exhaustive fault count of a structure over a run:
// entries x bits-per-entry x cycles.
func Population(entries, entryBits int, cycles uint64) float64 {
	return float64(entries) * float64(entryBits) * float64(cycles)
}

// Generate draws n uniform faults over (entry, bit, cycle in [1, cycles])
// for structure s, deterministically from seed.
//
// A degenerate geometry — zero entries, zero entry bits, or a zero-cycle
// run (an empty or instant workload) — has an empty fault population, so
// Generate returns an empty list instead of panicking inside the uniform
// draws. n <= 0 likewise yields an empty list.
func Generate(s lifetime.StructureID, entries, entryBits int, cycles uint64, n int, seed int64) []fault.Fault {
	if n <= 0 || entries <= 0 || entryBits <= 0 || cycles == 0 {
		return []fault.Fault{}
	}
	rng := rand.New(rand.NewSource(seed))
	faults := make([]fault.Fault, n)
	for i := range faults {
		faults[i] = fault.Fault{
			Structure: s,
			Entry:     int32(rng.Intn(entries)),
			Bit:       int32(rng.Intn(entryBits)),
			Cycle:     uint64(rng.Int63n(int64(cycles))) + 1,
		}
	}
	return faults
}
